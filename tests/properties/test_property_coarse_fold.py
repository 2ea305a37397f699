"""Exact oracle for job timelines (docs/PERFORMANCE.md).

Every timeline keeps one ``[count, min_start, max_end, busy]`` aggregate
per (phase, resource); a fine one also keeps its span log.  The scheduler
writes a job's spans once at job end, as columns derived from its result
columns.  This property runs the same modeled job twice — once on fine
timelines, once on coarse ones — and checks, entry by entry and bit for
bit (counts, envelopes and busy sums; key order is not part of the
contract):

* the fine job's aggregates equal the coarse job's;
* the fine job's log, refolded in log order through
  ``Timeline(coarse=True).record``, equals its own aggregates — so each
  entry was summed in record order.

The grid covers what makes the fold hard: straggler noise, speculative
copies beating stragglers or dead originals, pipelined collects,
capacity-weighted tiles and a worker dying mid-compute.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager, nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.metrics.figures import demo_config
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.simtime import Phase, Timeline, coarse_timelines
from repro.spark.driver import Driver
from repro.spark.faults import FaultPlan
from repro.spark.schedule import ScheduleConfig


def _region() -> TargetRegion:
    return TargetRegion(
        name="fold",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N*R]) map(from: C[:N*R])"],
        loops=[ParallelLoop(
            pragma="omp parallel for schedule(static)",
            loop_var="i", trip_count="N",
            reads=("A",), writes=("C",),
            partition_pragma="omp target data map(to: A[i*R:(i+1)*R]) "
                             "map(from: C[i*R:(i+1)*R])",
            flops_per_iter=1.0e9,
            body=None,
        )],
    )


@contextmanager
def _job_timelines():
    """Collect the timeline of every Spark job run inside the block."""
    seen: list[Timeline] = []
    run_job = Driver.run_job

    def capture(self, *args, **kwargs):
        result = run_job(self, *args, **kwargs)
        seen.append(result.timeline)
        return result

    Driver.run_job = capture
    try:
        yield seen
    finally:
        Driver.run_job = run_job


def _jobs(workers: int, tasks: int, sigma: float, slow: bool,
          schedule: ScheduleConfig, plan: FaultPlan,
          coarse: bool) -> list[Timeline]:
    cal = dataclasses.replace(DEFAULT_CALIBRATION, straggler_sigma=sigma)
    # 16 cores per worker: one executor per worker, so a death leaves
    # survivors to recompute on.  A quarter-speed last worker makes
    # stragglers slow enough for speculative copies to beat.
    speeds = (1.0,) * (workers - 1) + (0.25 if slow else 1.0,)
    dev = CloudDevice(demo_config(workers), physical_cores=workers * 16,
                      calibration=cal, fault_plan=plan, schedule=schedule,
                      worker_speeds=speeds)
    rt = OffloadRuntime()
    rt.register(dev)
    with _job_timelines() as seen, \
            coarse_timelines() if coarse else nullcontext():
        offload(_region(), scalars={"N": tasks, "R": 3}, runtime=rt,
                mode=ExecutionMode.MODELED)
    return seen


def _death(jobs: list[Timeline], victim: int) -> FaultPlan:
    """Kill one of the workers that computed in a fault-free run, halfway
    through its first compute span."""
    first: dict[str, float] = {}
    for tl in jobs:
        for s in tl.spans:
            if s.phase is Phase.COMPUTE and s.resource not in first:
                first[s.resource] = (s.start + s.end) / 2.0
    worker = sorted(first)[victim % len(first)]
    return FaultPlan(die_at={worker: first[worker]})


def _bits(agg: dict) -> dict:
    """Aggregate entries with every float in hex: equality is bitwise."""
    return {key: (count, *map(float.hex, (lo, hi, busy)))
            for key, (count, lo, hi, busy) in agg.items()}


@given(
    workers=st.sampled_from([2, 3]),
    tasks=st.integers(min_value=4, max_value=100),
    sigma=st.sampled_from([0.0, 0.3, 0.6]),
    slow=st.booleans(),
    speculation=st.booleans(),
    pipeline_depth=st.sampled_from([0, 4]),
    mode=st.sampled_from(["static", "weighted"]),
    dies=st.booleans(),
    victim=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_coarse_job_aggregates_equal_refolded_fine_spans(
        workers, tasks, sigma, slow, speculation, pipeline_depth, mode,
        dies, victim):
    schedule = ScheduleConfig(mode=mode, speculation=speculation,
                              pipeline_depth=pipeline_depth)
    plan = FaultPlan()
    if dies:
        plan = _death(_jobs(workers, tasks, sigma, slow, schedule, plan,
                            coarse=False), victim)

    fine = _jobs(workers, tasks, sigma, slow, schedule, plan, coarse=False)
    coarse = _jobs(workers, tasks, sigma, slow, schedule, plan, coarse=True)
    assert len(fine) == len(coarse) >= 1
    for fine_tl, coarse_tl in zip(fine, coarse):
        assert not fine_tl.coarse and coarse_tl.coarse
        assert _bits(fine_tl._agg) == _bits(coarse_tl._agg)
        refold = Timeline(coarse=True)
        for s in fine_tl.spans:
            refold.record(s.phase, s.start, s.end, s.resource)
        assert _bits(refold._agg) == _bits(fine_tl._agg)
