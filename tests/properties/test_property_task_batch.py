"""Exact oracle for the columnar task event (docs/OBSERVABILITY.md).

The scheduler hands each job's completed tasks to the event bus as one
``task_batch``, and :class:`MetricsSubscriber` folds it with NumPy
group-bys and :meth:`Histogram.observe_many`.  This property records the
whole stream and refolds it through
:func:`tests.oracles.fold_task_events_reference`, which replays every row
as the per-task ``task_start``/``task_end`` pair it replaced.  The two
registries must snapshot to the same JSON — bucket counts, per-worker
counts, gauges and the duration sum to the last bit.

The grid covers what makes the batch hard: straggler noise, a
quarter-speed worker, speculative copies that beat stragglers or dead
originals, pipelined collects, a worker dying mid-compute, and a job that
exhausts ``MAX_TASK_FAILURES`` after completing some of its rows.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.network import Link, NetworkModel
from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.metrics.figures import demo_config
from repro.obs.events import EventBus, use_bus
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.subscribers import MetricsSubscriber
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.simtime import Phase, SimClock, Timeline
from repro.spark.executor import Executor, ExecutorLostError
from repro.spark.faults import FaultPlan
from repro.spark.schedule import ScheduleConfig
from repro.spark.scheduler import (MAX_TASK_FAILURES, JobFailedError,
                                   TaskScheduler)

from tests.oracles import fold_task_events_reference
from tests.spark.tables import task_table


def _region() -> TargetRegion:
    return TargetRegion(
        name="batch",
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


def _offload(workers: int, tasks: int, sigma: float, slow: bool,
             schedule: ScheduleConfig, plan: FaultPlan):
    cal = dataclasses.replace(DEFAULT_CALIBRATION, straggler_sigma=sigma)
    # One executor per worker; the last one runs at quarter speed.
    speeds = (1.0,) * (workers - 1) + (0.25 if slow else 1.0,)
    rt = OffloadRuntime()
    rt.register(CloudDevice(demo_config(workers), physical_cores=workers * 16,
                            calibration=cal, fault_plan=plan,
                            schedule=schedule, worker_speeds=speeds))
    return offload(_region(), scalars={"N": tasks, "R": 3}, runtime=rt,
                   mode=ExecutionMode.MODELED)


def _death(report, victim: int) -> FaultPlan:
    """Kill a worker that computed in ``report``, halfway through its first
    compute span."""
    first: dict[str, float] = {}
    for s in report.timeline.spans:
        if s.phase is Phase.COMPUTE and s.resource not in first:
            first[s.resource] = (s.start + s.end) / 2.0
    worker = sorted(first)[victim % len(first)]
    return FaultPlan(die_at={worker: first[worker]})


def _exhausting_job(workers: int, tasks: int, slow: bool,
                    schedule: ScheduleConfig, lost_row: int) -> None:
    """A functional job whose row ``lost_row`` loses its executor on every
    attempt, so the job fails after completing the rows before it."""
    def closure(i):
        if i == lost_row:
            raise ExecutorLostError("lost mid-task")
        return [i]

    table = task_table(tasks, closure=closure,
                       compute_s=1.0 + 0.37 * (np.arange(tasks) % 7))
    executors = [Executor(f"w{i}", vcpus=2, task_cpus=2,
                          speed=0.25 if slow and i == workers - 1 else 1.0)
                 for i in range(workers)]
    net = NetworkModel(wan=Link(capacity_bps=1e6, latency_s=0.0),
                       lan=Link(capacity_bps=1e9, latency_s=0.0))
    with pytest.raises(JobFailedError,
                       match=f"failed {MAX_TASK_FAILURES} times"):
        TaskScheduler().run_job(table, executors, net, SimClock(), Timeline(),
                                functional=True, schedule=schedule)


def _snapshot(registry: MetricsRegistry) -> str:
    return json.dumps(registry.snapshot(), sort_keys=True)


@given(
    workers=st.sampled_from([2, 3]),
    tasks=st.integers(min_value=4, max_value=100),
    sigma=st.sampled_from([0.0, 0.6]),
    slow=st.booleans(),
    speculation=st.booleans(),
    pipeline_depth=st.sampled_from([0, 4]),
    dies=st.booleans(),
    victim=st.integers(min_value=0, max_value=2),
    exhaust=st.booleans(),
    lost_row=st.integers(min_value=0, max_value=99),
)
@settings(max_examples=40, deadline=None)
def test_batch_fold_equals_per_task_fold(workers, tasks, sigma, slow,
                                         speculation, pipeline_depth, dies,
                                         victim, exhaust, lost_row):
    schedule = ScheduleConfig(speculation=speculation,
                              pipeline_depth=pipeline_depth)
    plan = FaultPlan()
    if dies:
        plan = _death(_offload(workers, tasks, sigma, slow, schedule, plan),
                      victim)
    lost_row %= tasks

    bus = EventBus(keep_history=True)
    live = MetricsSubscriber()
    live.attach(bus)
    with use_bus(bus):
        report = _offload(workers, tasks, sigma, slow, schedule, plan)
        if exhaust:
            _exhausting_job(workers, tasks, slow, schedule, lost_row)

    batches = bus.events_of("task_batch")
    assert len(batches) == len(bus.events_of("job_end")) + exhaust
    assert sum(map(len, batches[:len(batches) - exhaust])) == report.tasks_run
    if exhaust:
        assert batches[-1].task_id.tolist() == list(range(lost_row))

    reference = MetricsRegistry()
    reference.register(bus.subscriber_errors)
    fold_task_events_reference(bus.events, reference)
    assert _snapshot(live.registry) == _snapshot(reference)
