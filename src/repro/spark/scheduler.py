"""Task scheduling.

The driver "is in charge of ... resource allocation and task scheduling".
This scheduler reproduces the cost structure of Spark's TaskSchedulerImpl for
the one-stage DOALL jobs OmpCloud generates:

* task launches are **serialized through the driver** (closure serialization +
  RPC), so per-task overhead scales with the task count — the reason the
  paper tiles loops down to one task per core (Algorithm 1);
* partition payloads scatter to executors through the **driver NIC**, modelled
  as a serial resource;
* broadcasts are charged once per job via the BitTorrent model;
* results stream back through the same NIC (``collect``);
* executor failures (from a :class:`~repro.spark.faults.FaultPlan`) trigger
  re-execution on surviving executors, up to ``spark.task.maxFailures``
  attempts — lineage recomputation in RDD terms.

A :class:`~repro.spark.schedule.ScheduleConfig` unlocks the adaptive layer
(all off by default, see ``docs/SCHEDULING.md``): speculative copies for
stragglers (``spark.speculation`` semantics, first result wins) and a
pipelined collect path that streams results through NIC idle gaps between
scatters instead of the strict end-of-job barrier.

Everything is accounted on a :class:`~repro.simtime.timeline.Timeline` with
the phases Figure 5 of the paper stacks.

Scale notes (docs/PERFORMANCE.md): a job is always one columnar
:class:`~repro.spark.tasktable.TaskTable` (plain scalars in the hot loop, no
per-task objects in any mode), executors are picked through the
amortized-O(log n) :class:`~repro.spark.exindex.ExecutorIndex`, collects are
ordered with one ``np.lexsort`` instead of repeated ``sorted(results, ...)``
passes, every span is written to the timeline once at job end as columns
derived from the result columns (:meth:`Timeline.record_columns`), the
event bus gets one columnar :class:`~repro.obs.events.TaskBatch` per job
from the same columns, and :class:`TaskResult` objects are materialized
lazily.  All of it is
bit-identical to the historical object-per-task implementation —
scheduling order is observable through reports, journals and traces, and a
property test pins the equivalence.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from repro.cloud.network import NetworkModel
from repro.obs.events import (SpeculationWon, TaskBatch, TaskSpeculated,
                              get_bus)
from repro.simtime.clock import SimClock
from repro.simtime.timeline import (Phase, SpanColumns, Timeline,
                                    task_labels)
from repro.spark.broadcast import Broadcast
from repro.spark.executor import Executor, ExecutorLostError
from repro.spark.exindex import ExecutorIndex
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.schedule import STATIC_SCHEDULE, ScheduleConfig
from repro.spark.serialization import sizeof_element
from repro.spark.tasktable import LazyResults, TaskResult, TaskTable

__all__ = [
    "MAX_TASK_FAILURES",
    "JobFailedError",
    "SchedulerCosts",
    "TaskResult",
    "TaskTable",
    "JobStats",
    "TaskScheduler",
]

#: Spark's default spark.task.maxFailures.
MAX_TASK_FAILURES = 4


#: The per-task worker phases, in the order each task runs them.
_WORKER_PHASES = (Phase.WORKER_DECOMPRESS, Phase.JNI_CALL, Phase.COMPUTE,
                  Phase.WORKER_COMPRESS)

#: A span's place in a timeline log is ``row * _SLOTS + slot``: the
#: launch-loop row it happened in, then its slot in that row — the order in
#: which the launch loop meets them: the launch, the pipelined collects
#: drained before the scatter, the scatter, speculative-copy launches, the
#: result's worker phases (``_WINNER + p``), then those of a straggling
#: original that a copy beat (``_LOSER + p``).  Collects after the launch
#: loop take row ``n``.
_LAUNCH, _COLLECT, _SCATTER, _SPECULATE, _WINNER, _LOSER = 0, 1, 2, 3, 4, 8
_SLOTS = 16


class JobFailedError(Exception):
    """A task exhausted its attempts or no executor survives."""


@dataclass
class SchedulerCosts:
    """Driver-side constants (calibrated in :mod:`repro.perfmodel.calibration`)."""

    #: Closure serialization + launch RPC per task, on the driver.
    task_launch_s: float = 0.004
    #: Heartbeat-based failure detection latency.
    failure_detect_s: float = 2.0


@dataclass
class JobStats:
    """Aggregates the benches report."""

    tasks: int = 0
    recomputed_tasks: int = 0
    broadcast_s: float = 0.0
    makespan_s: float = 0.0
    speculated_tasks: int = 0
    speculation_wins: int = 0
    speculation_saved_s: float = 0.0
    results: Sequence[TaskResult] = field(default_factory=list)


class TaskScheduler:
    """Schedules one job's task set onto a fixed executor group."""

    def __init__(self, costs: SchedulerCosts | None = None) -> None:
        self.costs = costs if costs is not None else SchedulerCosts()

    def run_job(
        self,
        tasks: TaskTable,
        executors: Sequence[Executor],
        network: NetworkModel,
        clock: SimClock,
        timeline: Timeline,
        broadcasts: Sequence[Broadcast] = (),
        fault_plan: FaultPlan = NO_FAULTS,
        functional: bool = True,
        schedule: ScheduleConfig = STATIC_SCHEDULE,
    ) -> JobStats:
        """Run all tasks; advances ``clock`` to job completion.

        Returns per-task results ordered by ``split``.
        """
        job = _JobRun(self.costs, tasks, executors, network, clock, timeline,
                      fault_plan, functional, schedule)
        return job.run(broadcasts)


class _JobRun:
    """One job's mutable scheduling state (built per ``run_job`` call)."""

    def __init__(
        self,
        costs: SchedulerCosts,
        tasks: TaskTable,
        executors: Sequence[Executor],
        network: NetworkModel,
        clock: SimClock,
        timeline: Timeline,
        fault_plan: FaultPlan,
        functional: bool,
        schedule: ScheduleConfig,
    ) -> None:
        self.costs = costs
        self.table = tasks
        self.executors = executors
        self.network = network
        self.clock = clock
        self.timeline = timeline
        self.fault_plan = fault_plan
        self.functional = functional
        self.schedule = schedule
        self.stats = JobStats(tasks=len(self.table))
        self.index = ExecutorIndex(executors)
        #: The hot loop records no span: it fills the columns below, and
        #: :meth:`_span_columns` derives every span from them at job end.
        #: Scatter spans, in row order.
        self.x_start = array("d")
        self.x_end = array("d")
        #: Collects in NIC order: the row, its start, and the launch-loop
        #: row it happened at (pipelined collects only; the rest are ``n``).
        self.c_row = array("q")
        self.c_start = array("d")
        self.c_at = array("q")
        #: ``(row, start, end)`` of each speculative-copy launch.
        self.spec_launches: list[tuple[int, float, float]] = []
        #: ``(row, start, executor position)`` of each straggling original a
        #: speculative copy beat — its spans follow its row's winner.
        self.losers: list[tuple[int, float, int]] = []
        #: Fault bookkeeping is all dict probes; an empty plan (the common
        #: case) skips them entirely.
        self.no_faults = fault_plan is NO_FAULTS or fault_plan.empty
        self.bus = get_bus()

        n = len(self.table)
        durations = self.table.slot_durations()
        # Straggler threshold base: the median of the *intended* slot
        # durations (what Spark estimates from the task set), not the
        # speed-degraded actuals — a slow node must look like a straggler.
        self.median_s = float(np.median(durations)) if n else 0.0
        # Hot-loop columns as plain Python scalars (attribute/ndarray access
        # per task would dominate at 1M rows).
        self.dur = durations.tolist()
        self.tid = self.table.task_id.tolist()
        self.in_b = self.table.input_bytes.tolist()
        self.out_b = self.table.output_bytes.tolist()
        # Result columns, filled as rows complete.
        self.r_start = [0.0] * n
        self.r_end = [0.0] * n
        self.r_collected = [0.0] * n
        self.r_attempts = [1] * n
        #: -1 until the row completes (a failed job's batch skips those).
        self.r_worker = [-1] * n
        self.spec_rows: set[int] = set()
        self.values: list[Any] | None = (
            [None] * n if self.table.closures is not None else None)
        #: Worker-id snapshot at job start; results reference positions so a
        #: post-job ``replace_executor`` cannot rewrite history.
        self.worker_ids = [ex.worker_id for ex in executors]
        self.pos_of = {id(ex): i for i, ex in enumerate(executors)}

    # --------------------------------------------------------------- the job
    def run(self, broadcasts: Sequence[Broadcast]) -> JobStats:
        alive = [ex for ex in self.executors if not ex.is_dead]
        if not alive:
            raise JobFailedError("no alive executors")
        clock, timeline, network = self.clock, self.timeline, self.network
        stats = self.stats
        t0 = clock.now

        # ------------------------------------------------------- broadcasts
        ready0 = t0
        worker_ids = {ex.worker_id for ex in alive}
        for bc in broadcasts:
            missing = worker_ids - bc.nodes_seeded
            if not missing or bc.nbytes == 0:
                continue
            dt = network.broadcast_time(bc.nbytes, len(missing), bittorrent=True)
            timeline.record(Phase.BROADCAST, ready0, ready0 + dt, resource="cluster",
                            label=f"broadcast-{bc.id}")
            bc.nodes_seeded |= missing
            stats.broadcast_s += dt
            ready0 += dt

        try:
            self._collect(*self._launch(ready0))
        finally:
            # One batch per job: all rows, or the rows a failed job
            # completed before its JobFailedError.
            self._emit_batch()
        timeline.record_columns(self._span_columns(ready0))

        job_end = max(self.r_collected, default=ready0)
        clock.advance_to(max(job_end, clock.now))
        stats.makespan_s = job_end - t0
        stats.results = self._ordered_results()
        return stats

    def _launch(self, ready0: float
                ) -> tuple[float, list[tuple[float, int, int]]]:
        """Launch, scatter and run every row in order, streaming pipelined
        collects in between; returns the NIC cursor and the results still
        uncollected (pipelined mode)."""
        schedule = self.schedule
        lan_time = self.network.lan_transfer_time
        n = len(self.table)
        launch_s = self.costs.task_launch_s
        in_b, out_b = self.in_b, self.out_b
        push_x_start, push_x_end = self.x_start.append, self.x_end.append
        measure_out = self.values is not None
        pipelined = schedule.pipelined
        driver_cursor = ready0
        nic_cursor = ready0
        #: Pipelined mode: scattered rows whose result is due, as a heap of
        #: (end, task_id, row) — pop order is exactly the historical
        #: ``min(uncollected, key=(end, task_id))`` scan.
        uncollected: list[tuple[float, int, int]] = []
        for row in range(n):
            driver_cursor += launch_s
            ready = driver_cursor
            if in_b[row] > 0:
                if pipelined:
                    # Back-pressure: at most pipeline_depth results may sit
                    # uncollected before the NIC must drain one.
                    while len(uncollected) >= schedule.pipeline_depth:
                        nic_cursor = self._collect_one(uncollected, nic_cursor,
                                                       row)
                    # Opportunistic overlap: any finished result whose
                    # transfer fits in the NIC gap before this scatter
                    # streams back now, while other tiles still compute.
                    while uncollected:
                        nxt_end, _, nxt_row = uncollected[0]
                        dt = lan_time(out_b[nxt_row])
                        if max(nxt_end, nic_cursor) + dt > ready:
                            break
                        nic_cursor = self._collect_one(uncollected,
                                                       nic_cursor, row)
                x0 = ready if ready > nic_cursor else nic_cursor
                nic_cursor = x0 + lan_time(in_b[row])
                push_x_start(x0)
                push_x_end(nic_cursor)
                ready = nic_cursor
            self._run_one(row, ready)
            if measure_out and out_b[row] < 0:
                # Unknown output size: measure the result the closure
                # returned, before the collect path needs it.
                value = self.values[row]
                out_b[row] = self.table.output_bytes[row] = (
                    sum(sizeof_element(x) for x in value)
                    if value is not None else 0)
            if pipelined:
                if out_b[row] > 0:
                    heapq.heappush(uncollected,
                                   (self.r_end[row], self.tid[row], row))
                else:
                    self.r_collected[row] = self.r_end[row]
        return nic_cursor, uncollected

    def _collect(self, nic_cursor: float,
                 uncollected: list[tuple[float, int, int]]) -> None:
        """Stream the remaining results back over the NIC."""
        n = len(self.table)
        out_b, lan_time = self.out_b, self.network.lan_transfer_time
        if self.schedule.pipelined:
            collect_cursor = nic_cursor
            while uncollected:
                collect_cursor = self._collect_one(uncollected, collect_cursor,
                                                   n)
        else:
            r_end, r_collected = self.r_end, self.r_collected
            push_c_row, push_c_start = self.c_row.append, self.c_start.append
            cursor = nic_cursor
            for row in np.lexsort((self.table.task_id,
                                   np.array(r_end))).tolist():
                if out_b[row] > 0:
                    end = r_end[row]
                    c0 = end if end > cursor else cursor
                    cursor = c0 + lan_time(out_b[row])
                    push_c_row(row)
                    push_c_start(c0)
                    r_collected[row] = cursor
                else:
                    r_collected[row] = r_end[row]

    def _emit_batch(self) -> None:
        """Deliver the completed rows as one :class:`TaskBatch`."""
        if not self.bus.is_active:
            return
        pos = np.array(self.r_worker, dtype=np.int64)
        rows = np.flatnonzero(pos >= 0)
        pos = pos[rows]
        end = np.array(self.r_end)[rows]
        speed = np.array([ex.speed for ex in self.executors])
        self.bus.emit(TaskBatch(
            time=float(end.max()) if len(rows) else self.clock.now,
            resource="driver",
            task_id=self.table.task_id[rows],
            worker_pos=pos,
            worker_ids=tuple(self.worker_ids),
            start=np.array(self.r_start)[rows],
            end=end,
            duration_s=np.array(self.dur)[rows] / speed[pos],
            attempts=np.array(self.r_attempts, dtype=np.int64)[rows]))

    def _ordered_results(self) -> LazyResults:
        """Results ordered by split — lazily materialized, and sorted only
        when splits are actually out of order (they almost never are: the
        driver emits tiles in split order)."""
        split = self.table.split
        order: np.ndarray | None = None
        if len(split) > 1 and not bool(np.all(split[1:] >= split[:-1])):
            order = np.argsort(split, kind="stable")
        return LazyResults(
            self.table,
            order=order,
            start=self.r_start,
            end=self.r_end,
            collected_at=self.r_collected,
            attempts=self.r_attempts,
            worker_pos=self.r_worker,
            worker_ids=self.worker_ids,
            speculative_rows=self.spec_rows,
            values=self.values,
        )

    # ------------------------------------------------------------ internals
    def _run_one(self, row: int, ready: float) -> None:
        fault_plan = self.fault_plan
        no_faults = self.no_faults
        duration = self.dur[row]
        closure = self.table.closure_of(row)
        attempts = 0
        while attempts < MAX_TASK_FAILURES:
            attempts += 1
            ex = self.index.pick(ready)
            if ex is None:
                raise JobFailedError("all executors are dead")
            res = ex.reserve(ready, duration)

            if not no_faults:
                # Worker already gone (death or spot preemption) before the
                # task could start: it never receives the reservation.
                # Blacklist and reschedule; no work was lost, so nothing is
                # recomputed.
                death = fault_plan.death_time(ex.worker_id)
                if death is not None and death < res.start:
                    ex.mark_dead(now=death, reason="dead before task start")
                    ready = max(ready, death + self.costs.failure_detect_s)
                    attempts -= 1  # not a task failure, only a placement miss
                    continue

                # Simulated-time death of the worker mid-task.  The task goes
                # silent at `death`; heartbeat detection notices at
                # death + failure_detect_s.  With speculation on, the driver
                # may notice the straggling (silent) task at multiplier x
                # median first and race a copy on another executor.
                if fault_plan.kills_reservation(ex.worker_id, res.start, res.end):
                    death_t = death if death is not None else res.start
                    ex.mark_dead(now=death_t, reason="died mid-task")
                    self.stats.recomputed_tasks += 1
                    if self.schedule.speculation and self.median_s > 0.0:
                        won = self._speculate(
                            row, ex, res.start,
                            attempts=attempts, original_end=None,
                            detect_at=death_t + self.costs.failure_detect_s)
                        if won:
                            return
                    ready = max(ready, death_t + self.costs.failure_detect_s)
                    continue

            # Functional failure injection: the Nth closure on this worker
            # raises.  An application crash is a *failure*, never a
            # straggler — speculation must not mask maxFailures exhaustion.
            value = None
            if self.functional and closure is not None:
                if not no_faults and fault_plan.should_raise(
                        ex.worker_id, ex.tasks_executed + 1):
                    ex.tasks_executed += 1
                    ex.mark_dead(now=res.start, reason="task crashed")
                    self.stats.recomputed_tasks += 1
                    midpoint = res.start + duration / 2.0
                    ready = max(ready, midpoint + self.costs.failure_detect_s)
                    continue
                try:
                    value = ex.run_closure(closure)
                except ExecutorLostError:
                    self.stats.recomputed_tasks += 1
                    ready = max(ready, res.end + self.costs.failure_detect_s)
                    continue

            # Straggler: the slot runs the task >= multiplier x median (a
            # degraded node, speed < 1).  Race a copy; first result wins.
            actual_s = res.end - res.start
            if (self.schedule.speculation and self.median_s > 0.0
                    and actual_s >= self.schedule.speculation_multiplier * self.median_s):
                won = self._speculate(
                    row, ex, res.start,
                    attempts=attempts, original_end=res.end,
                    detect_at=float("inf"), value=value)
                if won:
                    # The losing original still occupies its slot to the end
                    # (Spark kills it, but the model bills the spent time);
                    # its spans stay on the timeline, but it is no task
                    # completion: the job's TaskBatch has no row for it.
                    self.losers.append((row, res.start, self.pos_of[id(ex)]))
                    return

            self.r_start[row] = res.start
            self.r_end[row] = res.end
            self.r_attempts[row] = attempts
            self.r_worker[row] = self.pos_of[id(ex)]
            if self.values is not None:
                self.values[row] = value
            return
        raise JobFailedError(
            f"task {self.tid[row]} failed {MAX_TASK_FAILURES} times; aborting job"
        )

    def _speculate(
        self,
        row: int,
        original: Executor,
        original_start: float,
        *,
        attempts: int,
        original_end: float | None,
        detect_at: float,
        value: Any = None,
    ) -> bool:
        """Try to rescue a straggling/silent task with a speculative copy.

        Fills the row's result columns and returns True when a copy wins;
        False when the copy is not launched (would not beat the original /
        detection) or itself fails — the caller then falls through to the
        ordinary retry path, so ``maxFailures`` accounting is never weakened.

        ``original_end`` is the instant the original attempt would finish
        (``None`` when the original died and will never finish, in which
        case ``detect_at`` is when heartbeat detection would fire instead).
        """
        schedule, fault_plan = self.schedule, self.fault_plan
        duration = self.dur[row]
        tid = self.tid[row]
        closure = self.table.closure_of(row)
        watch = original_start + schedule.speculation_multiplier * self.median_s
        if watch >= detect_at:
            return False  # heartbeat detection fires first; retry normally
        copy_ex = self.index.pick_excluding(watch, original)
        if copy_ex is None:
            return False  # nowhere else to run a copy
        launch_end = watch + self.costs.task_launch_s
        est_start = max(copy_ex.pool.earliest_free(), launch_end)
        est_end = est_start + duration / copy_ex.speed
        if original_end is not None and est_end >= original_end:
            return False  # the copy cannot win; Spark would not launch it

        copy = copy_ex.reserve(launch_end, duration)
        self.spec_launches.append((row, watch, launch_end))
        self.stats.speculated_tasks += 1
        self.bus.emit(TaskSpeculated(time=watch, resource="driver",
                                     task_id=tid,
                                     worker=original.worker_id,
                                     copy_worker=copy_ex.worker_id,
                                     waited_s=watch - original_start,
                                     median_s=self.median_s))

        # The copy is as mortal as any task: the fault plan applies.
        copy_death = fault_plan.death_time(copy_ex.worker_id)
        if copy_death is not None and copy_death < copy.end:
            copy_ex.mark_dead(now=max(copy_death, 0.0),
                              reason="speculative copy lost")
            return False
        # Functional work runs on the copy only when the original never
        # finished; a straggling original already produced `value`, and
        # accumulators must commit exactly once per task.
        if self.functional and closure is not None and original_end is None:
            if fault_plan.should_raise(copy_ex.worker_id,
                                       copy_ex.tasks_executed + 1):
                copy_ex.tasks_executed += 1
                copy_ex.mark_dead(now=copy.start,
                                  reason="speculative copy crashed")
                return False
            try:
                value = copy_ex.run_closure(closure)
            except ExecutorLostError:
                return False

        # First result wins.  `saved` is what the tail would have cost
        # without the copy: the original's own finish, or (for a dead
        # original) detection + a full re-run — a lower bound, ignoring
        # re-queueing delays.
        counterfactual = (original_end if original_end is not None
                          else detect_at + duration)
        saved = max(0.0, counterfactual - copy.end)
        self.stats.speculation_wins += 1
        self.stats.speculation_saved_s += saved
        self.bus.emit(SpeculationWon(time=copy.end,
                                     resource=copy_ex.worker_id,
                                     task_id=tid, winner=copy_ex.worker_id,
                                     loser=original.worker_id, saved_s=saved))
        self.r_start[row] = copy.start
        self.r_end[row] = copy.end
        self.r_attempts[row] = attempts
        self.r_worker[row] = self.pos_of[id(copy_ex)]
        self.spec_rows.add(row)
        if self.values is not None:
            self.values[row] = value
        return True

    def _collect_one(self, pending: list[tuple[float, int, int]],
                     cursor: float, at_row: int) -> float:
        """Stream the earliest-finished pending result back over the NIC
        (while the launch loop is at ``at_row``)."""
        end, _tid, row = heapq.heappop(pending)
        c0 = end if end > cursor else cursor
        cursor = c0 + self.network.lan_transfer_time(self.out_b[row])
        self.c_row.append(row)
        self.c_start.append(c0)
        self.c_at.append(at_row)
        self.r_collected[row] = cursor
        return cursor

    def _span_columns(self, ready0: float) -> Iterator[SpanColumns]:
        """Every span of the job, one phase at a time, derived from the
        columns the run filled.  Labels are built only for a timeline that
        keeps a log."""
        yield from self._driver_columns(ready0)
        yield from self._worker_columns()

    def _driver_columns(self, ready0: float) -> Iterator[SpanColumns]:
        """Launch, scatter, collect and speculation spans.  Launch spans
        chain from ``ready0`` with ``np.add.accumulate``, which adds
        sequentially like the launch loop's ``+=``; the scatter and collect
        columns are read in place."""
        table, n = self.table, len(self.table)

        def driver(phase, kind, start, end, rows, at, slot, resource):
            def log():
                return (at * _SLOTS + slot,
                        task_labels(kind, table.task_id[rows].tolist()))
            return SpanColumns(phase, start, end, (resource,), None, log)

        rows = np.arange(n, dtype=np.int64)
        launch = np.add.accumulate(
            np.concatenate(([ready0], np.full(n, self.costs.task_launch_s))))
        yield driver(Phase.SCHEDULING, "launch", launch[:-1], launch[1:],
                     rows, rows, _LAUNCH, "driver")
        rows = np.flatnonzero(table.input_bytes > 0)
        yield driver(Phase.INTRA_TRANSFER, "scatter",
                     np.frombuffer(self.x_start), np.frombuffer(self.x_end),
                     rows, rows, _SCATTER, "driver-nic")
        rows = np.frombuffer(self.c_row, dtype=np.int64)
        at = np.full(len(rows), n, dtype=np.int64)
        at[:len(self.c_at)] = self.c_at
        yield driver(Phase.COLLECT, "collect", np.frombuffer(self.c_start),
                     np.array(self.r_collected)[rows], rows, at, _COLLECT,
                     "driver-nic")
        spec = np.array(self.spec_launches, dtype=np.float64).reshape(-1, 3)
        rows = spec[:, 0].astype(np.int64)
        yield driver(Phase.SPECULATION, "speculate", spec[:, 1], spec[:, 2],
                     rows, rows, _SPECULATE, "driver")

    def _worker_columns(self) -> Iterator[SpanColumns]:
        """Each row's winning attempt, from the result columns, and the
        straggling originals speculation beat, each following its row's
        winner.  A task's spans chain from its start on one executor: each
        phase with ``dur > 0`` runs ``[cursor, cursor + dur / speed)``."""
        table, n = self.table, len(self.table)
        losers = np.array(self.losers, dtype=np.float64).reshape(-1, 3)
        rows = np.concatenate((np.arange(n, dtype=np.int64),
                               losers[:, 0].astype(np.int64)))
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        loser = order >= n
        cursor = np.concatenate((self.r_start, losers[:, 1]))[order]
        pos = np.concatenate((np.array(self.r_worker, dtype=np.int64),
                              losers[:, 2].astype(np.int64)))[order]
        del order  # peak memory: one row column fewer while folding
        speed = np.array([ex.speed for ex in self.executors])[pos]
        names = list(dict.fromkeys(self.worker_ids))
        slot = {name: i for i, name in enumerate(names)}
        group = np.array([slot[w] for w in self.worker_ids],
                         dtype=np.int64)[pos]
        del pos
        copy = np.zeros(n, dtype=bool)
        copy[list(self.spec_rows)] = True
        copy = copy[rows] & ~loser
        columns = (table.decompress_s, table.jni_s, table.compute_s,
                   table.compress_s)
        for p, (phase, col) in enumerate(zip(_WORKER_PHASES, columns)):
            dur = col[rows]
            on = dur > 0.0
            nxt = np.where(on, cursor + dur / speed, cursor)
            del dur

            def log(on=on, p=p):
                rank = rows[on] * _SLOTS + np.where(loser[on], _LOSER,
                                                    _WINNER) + p
                return rank, task_labels("task",
                                         table.task_id[rows[on]].tolist(),
                                         table.stage, copy[on].tolist())
            yield SpanColumns(phase, cursor[on], nxt[on], names, group[on],
                              log)
            cursor = nxt
