"""The program's layers as the traced run sees them.

:func:`install` wraps the public callables at each layer boundary;
:func:`per_layer_metrics` folds the resulting spans, the observers' counts
and the reports' own counters into one value per metric, per pass.
Functions that run once per simulated task (``ExecutorIndex.pick``,
``SlotPool.acquire``, timeline folds) are deliberately not wrapped: the
``simtime`` layer and the executor index show only through
``spark.scheduler.run_job_self_s``.
"""

from __future__ import annotations

from repro.analysis import infer as analysis_infer
from repro.cloud.storage import CorruptObjectError, ObjectStore
from repro.core import codegen
from repro.core.api import ParallelLoop, TargetRegion
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.core.staging_cache import StagingCache
from repro.metrics import figures
from repro.perfmodel.compute import ComputeModel
from repro.resilience.journal import OffloadJournal
from repro.spark.driver import Driver
from repro.spark.scheduler import TaskScheduler
from spans import SpanSummary, Tracer

#: Public tiling functions, as the code generator calls them.
TILING = ("tile_iterations", "tile_by_chunk", "tile_weighted", "untiled",
          "drop_empty_tiles")

#: (metric, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("core.api.tile_flops_s", "s", "lower"),
    ("core.api.tile_flops_calls", "count", "lower"),
    ("metrics.run_point_self_s", "s", "lower"),
    ("core.region.build_s", "s", "lower"),
    ("core.region.builds", "count", "lower"),
    ("core.runtime.target_self_s", "s", "lower"),
    ("core.runtime.taskwait_s", "s", "lower"),
    ("core.plugin_cloud.data_begin_s", "s", "lower"),
    ("core.plugin_cloud.data_end_s", "s", "lower"),
    ("core.plugin_cloud.execute_self_s", "s", "lower"),
    ("core.codegen.run_self_s", "s", "lower"),
    ("core.tiling.tiles_s", "s", "lower"),
    ("core.partition.windows_s", "s", "lower"),
    ("perfmodel.task_timing_vec_s", "s", "lower"),
    ("spark.driver.run_job_s", "s", "lower"),
    ("spark.scheduler.run_job_self_s", "s", "lower"),
    ("spark.tasks_run", "count", "higher"),
    ("spark.tasks_recomputed", "count", "lower"),
    ("spark.tasks_speculated", "count", "lower"),
    ("spark.speculation_win_ratio", "ratio", "higher"),
    ("analysis.infer_s", "s", "lower"),
    ("analysis.infer_calls", "count", "lower"),
    ("core.taskgraph.fused_regions", "count", "higher"),
    ("core.data_env.resident_hits", "count", "higher"),
    ("core.staging_cache.hit_ratio", "ratio", "higher"),
    ("cloud.storage.put_s", "s", "lower"),
    ("cloud.storage.put_calls", "count", "lower"),
    ("cloud.storage.put_bytes", "B", "lower"),
    ("cloud.storage.get_s", "s", "lower"),
    ("cloud.storage.get_calls", "count", "lower"),
    ("cloud.storage.get_bytes", "B", "lower"),
    ("cloud.storage.corruptions_detected", "count", "lower"),
    ("resilience.resumes", "count", "lower"),
    ("resilience.tiles_skipped", "count", "higher"),
    ("resilience.journal_records", "count", "lower"),
    ("obs.events_delivered", "count", "lower"),
    ("obs.overhead_s", "s", "lower"),
    ("workloads.kernel_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    w = tracer.wrap
    w(ParallelLoop, "tile_flops", "core.api.tile_flops")
    w(figures, "run_point", "metrics.run_point")
    w(TargetRegion, "__init__", "core.region.build")
    w(OffloadRuntime, "target", "core.runtime.target")
    w(OffloadRuntime, "taskwait", "core.runtime.taskwait")
    w(CloudDevice, "data_begin", "core.plugin_cloud.data_begin")
    w(CloudDevice, "data_end", "core.plugin_cloud.data_end")
    w(CloudDevice, "execute", "core.plugin_cloud.execute")
    for fn in TILING:
        w(codegen, fn, "core.tiling.tiles")
    w(codegen, "partition_windows", "core.partition.windows")
    w(ComputeModel, "task_timing_vec", "perfmodel.task_timing_vec")
    w(Driver, "run_job", "spark.driver.run_job")
    w(TaskScheduler, "run_job", "spark.scheduler.run_job")
    w(analysis_infer, "infer_region", "analysis.infer")

    def cache_lookup(args, found, exc):
        tracer.count("staging_cache.lookups")
        if found is not None:
            tracer.count("staging_cache.hits")

    def moved(op):
        def observe(args, obj, exc):
            if obj is not None:
                tracer.count(f"storage.{op}_bytes", obj.size)
            if isinstance(exc, CorruptObjectError):
                tracer.count("storage.corruptions_detected")
        return observe

    w(StagingCache, "lookup", "core.staging_cache.lookup", cache_lookup)
    w(ObjectStore, "put", "cloud.storage.put", moved("put"))
    w(ObjectStore, "get", "cloud.storage.get", moved("get"))

    journal_record = OffloadJournal.record

    def record(self, *args, **kwargs):
        tracer.count("journal_records")
        return journal_record(self, *args, **kwargs)

    tracer.patch(OffloadJournal, "record", record)

    # Tile bodies are timed only while the job runs, so the analysis layer,
    # which reads their source and closures before that, sees the originals.
    job_run = tracer.traced("core.codegen.run", codegen.SparkJobGenerator.run)

    def run_with_timed_bodies(gen, *args, **kwargs):
        loops = [loop for loop in gen.region.loops if loop.body is not None]
        bodies = [loop.body for loop in loops]
        for loop, body in zip(loops, bodies):
            loop.body = tracer.traced("workloads.kernel", body)
        try:
            return job_run(gen, *args, **kwargs)
        finally:
            for loop, body in zip(loops, bodies):
                loop.body = body

    tracer.patch(codegen.SparkJobGenerator, "run", run_with_timed_bodies)


def per_layer_metrics(tracer: Tracer, totals: dict[str, int], passes: int,
                      *, plain_wall_s: float, traced_wall_s: float,
                      detached_wall_s: float | None) -> dict[str, float]:
    """Per-layer metrics per pass of the workload.

    ``totals`` are the report counters summed over the traced passes;
    ``*_wall_s`` are median pass times of the untraced run, the traced run
    and (for a workload with a bus) the untraced run with the bus detached.
    """
    s = SpanSummary(tracer.spans)
    c = tracer.counts

    def per(x: float) -> float:
        return x / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "core.api.tile_flops_s": per(s.total_s("core.api.tile_flops")),
        "core.api.tile_flops_calls": per(s.calls("core.api.tile_flops")),
        "metrics.run_point_self_s": per(s.self_s("metrics.run_point")),
        "core.region.build_s": per(s.total_s("core.region.build")),
        "core.region.builds": per(s.calls("core.region.build")),
        "core.runtime.target_self_s": per(s.self_s("core.runtime.target")),
        "core.runtime.taskwait_s": per(s.total_s("core.runtime.taskwait")),
        "core.plugin_cloud.data_begin_s": per(s.total_s("core.plugin_cloud.data_begin")),
        "core.plugin_cloud.data_end_s": per(s.total_s("core.plugin_cloud.data_end")),
        "core.plugin_cloud.execute_self_s": per(s.self_s("core.plugin_cloud.execute")),
        "core.codegen.run_self_s": per(s.self_s("core.codegen.run")),
        "core.tiling.tiles_s": per(s.total_s("core.tiling.tiles")),
        "core.partition.windows_s": per(s.total_s("core.partition.windows")),
        "perfmodel.task_timing_vec_s": per(s.total_s("perfmodel.task_timing_vec")),
        "spark.driver.run_job_s": per(s.total_s("spark.driver.run_job")),
        "spark.scheduler.run_job_self_s": per(s.self_s("spark.scheduler.run_job")),
        "spark.tasks_run": per(totals["tasks_run"]),
        "spark.tasks_recomputed": per(totals["tasks_recomputed"]),
        "spark.tasks_speculated": per(totals["tasks_speculated"]),
        "spark.speculation_win_ratio": ratio(totals["speculation_wins"],
                                             totals["tasks_speculated"]),
        "analysis.infer_s": per(s.total_s("analysis.infer")),
        "analysis.infer_calls": per(s.calls("analysis.infer")),
        "core.taskgraph.fused_regions": per(totals["fused_regions"]),
        "core.data_env.resident_hits": per(totals["resident_hits"]),
        "core.staging_cache.hit_ratio": ratio(c["staging_cache.hits"],
                                              c["staging_cache.lookups"]),
        "cloud.storage.put_s": per(s.total_s("cloud.storage.put")),
        "cloud.storage.put_calls": per(s.calls("cloud.storage.put")),
        "cloud.storage.put_bytes": per(c["storage.put_bytes"]),
        "cloud.storage.get_s": per(s.total_s("cloud.storage.get")),
        "cloud.storage.get_calls": per(s.calls("cloud.storage.get")),
        "cloud.storage.get_bytes": per(c["storage.get_bytes"]),
        "cloud.storage.corruptions_detected": per(c["storage.corruptions_detected"]),
        "resilience.resumes": per(totals["resumes"]),
        "resilience.tiles_skipped": per(totals["tiles_skipped"]),
        "resilience.journal_records": per(c["journal_records"]),
        "obs.events_delivered": per(totals["events"]),
        "obs.overhead_s": (plain_wall_s - detached_wall_s
                           if detached_wall_s is not None else 0.0),
        "workloads.kernel_s": per(s.total_s("workloads.kernel")),
        "trace.overhead_s": traced_wall_s - plain_wall_s,
    }
