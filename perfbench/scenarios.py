"""The benchmark's four closed-loop workloads.

Each workload is a list of *operations* that one caller issues back to back
in one process; a *pass* runs the list once.  Set-up (``__init__``) builds
every input from the seed and computes the oracles, so a pass only drives
the program and checks what comes back.  An operation fails when it raises,
when an output misses its oracle, when a modeled report's digest differs
from the one recorded in ``digests.json``, or when a mechanism guard finds
that the workload stopped exercising the layer it exists for.

Modeled workloads draw their simulated inputs from ``seed % VARIANTS``
recorded variants (the digest table holds every one); the functional
workload's arrays come from the seed directly and are checked against NumPy.
"""

from __future__ import annotations

import dataclasses
import random
from contextlib import nullcontext
from time import perf_counter
from typing import Callable

import numpy as np

from oracle import DigestBook, require
from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.core.taskgraph import depend
from repro.metrics import figures
from repro.obs.events import EventBus, use_bus
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.subscribers import MetricsSubscriber
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.resilience.chaos import TOLERANCE, chaos_faults, run_chaos
from repro.simtime import coarse_timelines
from repro.simtime.timeline import Phase
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.schedule import ScheduleConfig
from repro.workloads import WORKLOADS
from repro.workloads.polybench import mm3_chain_regions

#: Modeled workloads run one of this many recorded input variants.
VARIANTS = 8


class Record:
    """What one successful operation did."""

    def __init__(self) -> None:
        #: Host seconds per offload; a deferred region's runs through its
        #: ``taskwait``.
        self.latencies: list[float] = []
        self.reports: list = []
        self.chaos: list = []
        #: Events the benchmark's own bus delivered.
        self.events = 0

    def timed(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as one offload and keep its latency."""
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.latencies.append(perf_counter() - t0)
        return out

    def count_event(self, _event) -> None:
        self.events += 1


Operation = Callable[[Record], None]


def scale_region(flops_per_iter: float) -> TargetRegion:
    """The scaling bench's region: one single-iteration tile per task
    (``schedule(static, 1)``) with a constant flop count, so the front end's
    per-iteration flops evaluation is bypassed."""
    return TargetRegion(
        name="scale",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N*R]) map(from: C[:N*R])"],
        loops=[ParallelLoop(
            pragma="omp parallel for schedule(static, 1)",
            loop_var="i", trip_count="N",
            reads=("A",), writes=("C",),
            partition_pragma="omp target data map(to: A[i*R:(i+1)*R]) "
                             "map(from: C[i*R:(i+1)*R])",
            flops_per_iter=flops_per_iter,
            body=None,
        )],
    )


# ------------------------------------------------------------- paper_sweep
class PaperSweep:
    """Every Figure 4/5 point through ``figures.run_point``, each with a fresh
    runtime and no memoization: what regenerating the paper costs.  The seed
    fixes the order of the points."""

    name = "paper_sweep"

    def __init__(self, seed: int, book: DigestBook, tiny: bool = False) -> None:
        self.book = book
        points = [(w, c, d) for w in WORKLOADS for c in figures.CORE_SWEEP
                  for d in (figures.DENSE, figures.SPARSE)]
        random.Random(seed).shuffle(points)
        self.ops: list[Operation] = [
            self._op(w, c, d) for w, c, d in (points[:3] if tiny else points)]

    def _op(self, workload: str, cores: int, density: float) -> Operation:
        key = f"paper_sweep/{workload}/{cores}/{density}"

        def point(rec: Record) -> None:
            pt = rec.timed(figures.run_point, workload, cores, density)
            self.book.check(key, pt.report)
            rec.reports.append(pt.report)

        point.__name__ = key
        return point


# --------------------------------------------------------------- sim_scale
class SimScale:
    """One fault-free modeled offload of many single-iteration tiles on a
    large cluster, coarse timelines, bus detached: the scheduler, executor
    index, slot pools and tiling at scale.  The variant sets the elements
    per iteration (bytes per task), not the amount of scheduling work."""

    name = "sim_scale"

    def __init__(self, seed: int, book: DigestBook, tiny: bool = False) -> None:
        self.book = book
        self.workers, self.tasks = (20, 2_000) if tiny else (1_000, 200_000)
        variant = seed % VARIANTS
        self.rows = 2 + variant
        self.key = f"sim_scale/{self.workers}x{self.tasks}/v{variant}"
        self.calibration = dataclasses.replace(DEFAULT_CALIBRATION,
                                               straggler_sigma=0.0)
        self.ops: list[Operation] = [self.offload]

    def offload(self, rec: Record) -> None:
        rt = OffloadRuntime()
        rt.register(CloudDevice(figures.demo_config(self.workers),
                                physical_cores=self.workers * 8,
                                calibration=self.calibration))
        with coarse_timelines():
            report = rec.timed(
                lambda: offload(scale_region(1.0e6),
                                scalars={"N": self.tasks, "R": self.rows},
                                runtime=rt, mode=ExecutionMode.MODELED))
        require(report.tasks_run == self.tasks,
                f"tasks_run {report.tasks_run} != {self.tasks} tiles")
        self.book.check(self.key, report)
        rec.reports.append(report)


# -------------------------------------------------------------- sim_faults
class SimFaults:
    """The sim_scale shape, smaller, with straggler noise, speculation,
    three worker deaths and a spot preemption, under a bus with a
    ``MetricsSubscriber`` attached: the recompute, speculation and
    replacement paths plus per-task event delivery.

    The fault instants fall inside the compute wave that a fault-free dry
    run at set-up observed, on workers that were busy in it."""

    name = "sim_faults"
    #: Long enough tasks that a death always interrupts one, short enough
    #: (under the 2 s heartbeat) that speculation races the lost task.
    FLOPS_PER_ITER = 1.0e9

    def __init__(self, seed: int, book: DigestBook, tiny: bool = False) -> None:
        self.book = book
        self.workers, self.tasks = (20, 1_000) if tiny else (200, 20_000)
        variant = seed % VARIANTS
        self.key = f"sim_faults/{self.workers}x{self.tasks}/v{variant}"
        #: With False the same offload runs with no bus attached; the traced
        #: run uses that to price event delivery.
        self.instrumented = True
        dry = self._offload(NO_FAULTS, None)
        busy = sorted((s for s in dry.timeline.spans if s.phase is Phase.COMPUTE),
                      key=lambda s: s.resource)
        rng = random.Random(variant)
        victims = rng.sample(busy, 4)
        at = {s.resource: s.start + (s.end - s.start) * rng.uniform(0.3, 0.7)
              for s in victims}
        names = [s.resource for s in victims]
        self.plan = FaultPlan(die_at={n: at[n] for n in names[:3]},
                              preempt_at={names[3]: at[names[3]]})
        self.ops: list[Operation] = [self.faulty_offload]

    def _offload(self, plan: FaultPlan, rec: Record | None):
        rt = OffloadRuntime()
        rt.register(CloudDevice(figures.demo_config(self.workers),
                                physical_cores=self.workers * 8,
                                schedule=ScheduleConfig(speculation=True),
                                fault_plan=plan))
        bus = None
        if rec is not None and self.instrumented:
            bus = EventBus()
            MetricsSubscriber(MetricsRegistry()).attach(bus)
            bus.subscribe(rec.count_event)

        def run():
            return offload(scale_region(self.FLOPS_PER_ITER),
                           scalars={"N": self.tasks, "R": 4},
                           runtime=rt, mode=ExecutionMode.MODELED)

        with use_bus(bus) if bus is not None else nullcontext(), coarse_timelines():
            return rec.timed(run) if rec is not None else run()

    def faulty_offload(self, rec: Record) -> None:
        report = self._offload(self.plan, rec)
        require(report.tasks_run == self.tasks,
                f"tasks_run {report.tasks_run} != {self.tasks} tiles")
        require(report.tasks_recomputed > 0, "no task was recomputed")
        require(report.tasks_speculated > 0, "no task was speculated")
        self.book.check(self.key, report)
        rec.reports.append(report)


# ---------------------------------------------------------- functional_mix
def _cloud_runtime(**config) -> OffloadRuntime:
    rt = OffloadRuntime()
    rt.register(CloudDevice(
        dataclasses.replace(figures.demo_config(n_workers=4), **config),
        physical_cores=32))
    return rt


def _copy(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in arrays.items()}


def _check_close(arrays, expected, what: str) -> None:
    for name, want in expected.items():
        require(np.allclose(arrays[name], want, **TOLERANCE),
                f"{what}: output {name!r} misses the NumPy oracle")


class FunctionalMix:
    """Real-array offloads checked against NumPy: gemm/covar/matmul on both
    sides of ``min_compress_size``, gemm with clause inference, a repeated
    gemm with the staging cache on, the chained 3MM fused by
    ``nowait``/``depend`` inside ``target data``, and seeded chaos resume
    runs.  The only workload that stages real bytes."""

    name = "functional_mix"
    #: Kernels, each run below and above the 1 MiB ``min_compress_size``.
    KERNELS = ("gemm", "covar", "matmul")
    #: Chaos benchmarks; all but the last lose their driver mid-wave.
    CHAOS = ("gemm", "syrk", "covar", "matmul")

    def __init__(self, seed: int, book: DigestBook, tiny: bool = False) -> None:
        small, large = (24, 40) if tiny else (256, 640)
        self.min_compress = 1 << 20 if not tiny else 4096
        self.chain_n = 16 if tiny else 192
        self.cache_n = 32 if tiny else 384
        self.ops: list[Operation] = []
        for i, name in enumerate(self.KERNELS):
            for n in (small, large):
                self.ops.append(self._kernel_op(name, n, seed * 16 + i,
                                                compressed=n == large))
        self.ops.append(self._kernel_op("gemm", small, seed * 16 + 8,
                                        infer_maps=True))
        self.ops.append(self._cache_op(seed * 16 + 9))
        self.ops.append(self._chain_op(seed * 16 + 10))
        for i, bench in enumerate(self.CHAOS):
            self.ops.append(self._chaos_op(bench, seed, kill=i < len(self.CHAOS) - 1))

    # -- one kernel, one offload
    def _kernel_op(self, name: str, n: int, data_seed: int, *,
                   compressed: bool = False, infer_maps: bool = False) -> Operation:
        spec = WORKLOADS[name]
        scalars = spec.scalars(n)
        inputs = spec.inputs(n, seed=data_seed)
        expected = spec.reference(_copy(inputs), scalars)
        label = f"{name}/{n}" + ("/infer" if infer_maps else "")

        def kernel(rec: Record) -> None:
            rt = _cloud_runtime(min_compress_size=self.min_compress)
            arrays = _copy(inputs)
            report = rec.timed(lambda: offload(
                spec.build_region("CLOUD"), arrays=arrays, scalars=scalars,
                runtime=rt, infer_maps=infer_maps))
            require(not report.fell_back_to_host and report.tasks_run > 0,
                    f"{label}: ran on {report.device_name} with "
                    f"{report.tasks_run} tasks")
            if compressed:
                require(report.bytes_up_raw > self.min_compress
                        and report.bytes_up_wire < report.bytes_up_raw,
                        f"{label}: inputs were not gzip-staged")
            _check_close(arrays, expected, label)
            rec.reports.append(report)

        kernel.__name__ = label
        return kernel

    # -- the same gemm twice on one device with the staging cache on
    def _cache_op(self, data_seed: int) -> Operation:
        spec = WORKLOADS["gemm"]
        n = self.cache_n
        scalars = spec.scalars(n)
        inputs = spec.inputs(n, seed=data_seed)
        once = spec.reference(_copy(inputs), scalars)
        twice = spec.reference({**_copy(inputs), **once}, scalars)

        def cached(rec: Record) -> None:
            rt = _cloud_runtime(cache=True, min_compress_size=self.min_compress)
            arrays = _copy(inputs)
            reports = [rec.timed(lambda: offload(
                spec.build_region("CLOUD"), arrays=arrays, scalars=scalars,
                runtime=rt)) for _ in range(2)]
            require(reports[1].cache_hits > 0, "the repeat missed the staging cache")
            _check_close(arrays, twice, "cached gemm")
            rec.reports.extend(reports)

        cached.__name__ = "gemm/cache"
        return cached

    # -- 3MM as three deferred regions that fuse into one job
    def _chain_op(self, data_seed: int) -> Operation:
        n = self.chain_n
        rng = np.random.default_rng(data_seed)
        inputs = {v: rng.uniform(-1, 1, n * n).astype(np.float32) for v in "ABCD"}
        for v in "EFG":
            inputs[v] = np.zeros(n * n, dtype=np.float32)
        expected = WORKLOADS["3mm"].reference(_copy(inputs), {"N": n})
        serial = self._chain(inputs, fused=False, rec=None)
        _check_close(serial, expected, "serial 3MM chain")

        def chain(rec: Record) -> None:
            host = self._chain(inputs, fused=True, rec=rec)
            require(np.array_equal(host["G"], serial["G"]),
                    "fused 3MM chain differs bit-wise from the serial chain")

        chain.__name__ = "3mm/fused"
        return chain

    def _chain(self, inputs, *, fused: bool, rec: Record | None):
        n = self.chain_n
        host = _copy(inputs)
        rt = _cloud_runtime(min_compress_size=self.min_compress)
        clauses = (depend(out="E"), depend(out="F"), depend(in_=("E", "F")))
        with rt.target_data(device="CLOUD",
                            map_to={v: host[v] for v in "ABCD"},
                            map_alloc={"E": host["E"], "F": host["F"]}):
            calls = []
            for region, clause in zip(mm3_chain_regions("CLOUD"), clauses):
                calls.append(perf_counter())
                extra = {"nowait": True, "depend": clause} if fused else {}
                offload(region, arrays=host, scalars={"N": n}, runtime=rt, **extra)
            if fused:
                reports = rt.taskwait()
                done = perf_counter()
                unique = {id(r): r for r in reports}
                require(len(unique) == 1 and reports[0].fused_regions == 3,
                        f"expected one job of 3 fused regions, got "
                        f"{[r.fused_regions for r in unique.values()]}")
                if rec is not None:
                    rec.latencies.extend(done - t for t in calls)
                    rec.reports.append(reports[0])
        return host

    # -- seeded chaos runs under the resume policy
    def _chaos_op(self, bench: str, seed: int, kill: bool) -> Operation:
        # The first chaos seed of this run whose derived faults do (or do
        # not) kill the driver; run_chaos derives everything else from it.
        chaos_seed = next(s for s in range(seed * 64, seed * 64 + 64)
                          if chaos_faults(bench, s)[3] == kill)

        def chaos(rec: Record) -> None:
            result = rec.timed(run_chaos, bench, chaos_seed, recovery="resume")
            require(result.ok, f"chaos {bench}@{chaos_seed}: {result.failures}")
            if kill:
                require(result.resumes > 0,
                        f"chaos {bench}@{chaos_seed}: the driver death was not resumed")
            rec.chaos.append(result)

        chaos.__name__ = f"chaos/{bench}"
        return chaos


SCENARIOS = {cls.name: cls for cls in (PaperSweep, SimScale, SimFaults,
                                       FunctionalMix)}
