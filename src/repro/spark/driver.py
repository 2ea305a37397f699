"""The Spark driver.

"The driver is in charge of communication with the outside world (i.e. host
computer), resource allocation and task scheduling."  Here it turns an RDD
action into a task set, runs it through the :class:`TaskScheduler`, and hands
back per-partition results plus the job's timeline and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs.events import JobEnd, JobStart, get_bus
from repro.simtime.timeline import Timeline
from repro.spark.broadcast import Broadcast
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.rdd import RDD, MappedRDD, ParallelCollectionRDD
from repro.spark.schedule import STATIC_SCHEDULE, ScheduleConfig
from repro.spark.scheduler import JobStats, SchedulerCosts, TaskScheduler, TaskTable
from repro.spark.serialization import sizeof_element

if True:  # keep import group tight for the type checker
    from repro.spark.cluster import SparkCluster


@dataclass
class TaskCostsArrays:
    """Per-task simulated durations and payload sizes for a whole job, as
    parallel arrays (one entry per partition).

    The OmpCloud codegen computes every tile's costs in one numpy pass and
    the driver turns them into the job's columnar
    :class:`~repro.spark.tasktable.TaskTable` as they are.  A negative byte
    count means "unknown": functional jobs measure it from the partition
    data (inputs) or the task's result (outputs); modeled jobs count 0.
    """

    compute_s: np.ndarray
    jni_s: np.ndarray
    decompress_s: np.ndarray
    compress_s: np.ndarray
    input_bytes: np.ndarray
    output_bytes: np.ndarray

    def __len__(self) -> int:
        return len(self.compute_s)


@dataclass
class JobResult:
    """Everything a job produced."""

    partitions: list[list[Any]]
    stats: JobStats
    timeline: Timeline = field(default_factory=Timeline)

    @property
    def makespan_s(self) -> float:
        return self.stats.makespan_s


PartitionPost = Callable[[list[Any]], list[Any]]


class Driver:
    """Driver-node logic shared by functional and modeled jobs."""

    def __init__(self, cluster: "SparkCluster", costs: SchedulerCosts | None = None) -> None:
        self.cluster = cluster
        self.scheduler = TaskScheduler(costs)
        self._job_seq = 0

    def run_job(
        self,
        rdd: RDD,
        partition_post: PartitionPost | None = None,
        costs: TaskCostsArrays | None = None,
        broadcasts: Sequence[Broadcast] = (),
        fault_plan: FaultPlan = NO_FAULTS,
        functional: bool = True,
        schedule: ScheduleConfig = STATIC_SCHEDULE,
        stage: str = "",
    ) -> JobResult:
        """Execute ``rdd`` (optionally post-processing each partition).

        The job is submitted as one columnar :class:`TaskTable`, one row per
        partition.  ``costs`` gives every task's durations and payload sizes
        (``None``: zero durations, sizes unknown).  In functional mode the
        closures really run and unknown sizes are measured from the data; in
        modeled mode they count 0.  ``stage`` labels every task's timeline
        spans with the loop it tiles (fused offloads submit one stage per
        member loop).
        """
        self._job_seq += 1
        timeline = Timeline()
        n = rdd.num_partitions
        if costs is None:
            zero = np.zeros(n)
            unknown = np.full(n, -1, dtype=np.int64)
            costs = TaskCostsArrays(zero, zero, zero, zero, unknown, unknown)
        elif len(costs) != n:
            raise ValueError(f"costs has {len(costs)} rows for {n} partitions")
        splits = np.arange(n, dtype=np.int64)
        closures: list[Callable[[], list[Any]]] | None = None
        if functional:
            input_bytes = np.array(costs.input_bytes, dtype=np.int64)
            for split in np.flatnonzero(input_bytes < 0).tolist():
                input_bytes[split] = self._measure_input_bytes(rdd, split)
            # A copy: the scheduler writes measured sizes into the column.
            output_bytes = np.array(costs.output_bytes, dtype=np.int64)
            closures = [self._make_closure(rdd, split, partition_post)
                        for split in range(n)]
        else:
            input_bytes = np.maximum(
                np.asarray(costs.input_bytes, dtype=np.int64), 0)
            output_bytes = np.maximum(
                np.asarray(costs.output_bytes, dtype=np.int64), 0)
        tasks = TaskTable(
            task_id=self._job_seq * 100_000 + splits,
            split=splits,
            compute_s=costs.compute_s,
            jni_s=costs.jni_s,
            decompress_s=costs.decompress_s,
            compress_s=costs.compress_s,
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            stage=stage,
            closures=closures,
        )

        bus = get_bus()
        bus.emit(JobStart(time=self.cluster.clock.now, resource="driver",
                          job_id=self._job_seq, tasks=n))
        stats = self.scheduler.run_job(
            tasks,
            executors=self.cluster.executors,
            network=self.cluster.network,
            clock=self.cluster.clock,
            timeline=timeline,
            broadcasts=broadcasts,
            fault_plan=fault_plan,
            functional=functional,
            schedule=schedule,
        )
        bus.emit(JobEnd(time=self.cluster.clock.now, resource="driver",
                        job_id=self._job_seq, makespan_s=stats.makespan_s,
                        tasks_recomputed=stats.recomputed_tasks))
        partitions: list[list[Any]]
        if functional:
            partitions = [r.value if r.value is not None else []
                          for r in stats.results]
        else:
            # Modeled jobs have no values; don't materialize 1M TaskResult
            # objects just to read None from each.  The empty list is
            # shared — partitions of a modeled job are never mutated.
            partitions = [[]] * n
        return JobResult(partitions=partitions, stats=stats, timeline=timeline)

    # ------------------------------------------------------------- internals
    @staticmethod
    def _make_closure(
        rdd: RDD,
        split: int,
        partition_post: PartitionPost | None,
    ) -> Callable[[], list[Any]]:
        def closure() -> list[Any]:
            data = rdd.iterator(split)
            if partition_post is not None:
                data = partition_post(data)
            return data

        return closure

    @staticmethod
    def _measure_input_bytes(rdd: RDD, split: int) -> int:
        """Bytes that must move driver -> executor for this partition: the
        source collection's slice (narrow transformations recompute the rest
        on the worker)."""
        node = rdd
        while isinstance(node, MappedRDD):
            node = node.parent
        if isinstance(node, ParallelCollectionRDD):
            return sum(sizeof_element(x) for x in node.compute(split))
        return 0
