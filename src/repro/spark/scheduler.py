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
passes, a coarse timeline's worker phases are folded once at job end from
the result columns, and :class:`TaskResult` objects are materialized
lazily.  All of it
is bit-identical to the historical object-per-task implementation —
scheduling order is observable through reports, journals and traces, and a
property test pins the equivalence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.cloud.network import NetworkModel
from repro.obs.events import (SpeculationWon, TaskEnd, TaskSpeculated,
                              TaskStart, get_bus)
from repro.simtime.clock import SimClock
from repro.simtime.timeline import Phase, Timeline
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


def _settle(e: list, count: int, first: float, last: float,
            busy: float) -> None:
    """Write a run of ``count`` spans into a coarse aggregate entry.

    ``first``/``last`` are the run's earliest start and latest end (its
    cursor never moves backwards); ``busy`` already continues the entry's
    own busy sum span by span, so it replaces it.
    """
    e[0] += count
    if first < e[1]:
        e[1] = first
    if last > e[2]:
        e[2] = last
    e[3] = busy


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
        #: Coarse timelines aggregate and ignore labels: ``agg`` is their
        #: aggregate dict (``None`` for a fine timeline).  A coarse job keeps
        #: driver-side spans in local sums and folds the worker phases once
        #: at job end (:meth:`_fold_worker_phases`), so the hot loop makes no
        #: per-span call and builds no label.
        self.fine = not timeline.coarse
        self.agg = timeline._agg
        #: Coarse only: entries of the driver-side keys the launch loop
        #: touched, and ``(row, key, entry)`` for those the job creates —
        #: held back so the fold can insert them in first-touch order.
        self.driver_entries: dict[tuple[Phase, str], list] = {}
        self.born: list[tuple[int, tuple[Phase, str], list]] = []
        #: Coarse only: ``(row, start, executor position)`` of each
        #: straggling original a speculative copy beat — the one kind of
        #: span the result columns do not hold.
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
        #: Fine only: each row's worker-phase seconds, in _WORKER_PHASES
        #: order (a coarse job folds the table columns at job end).
        self.phase_s = ([col.tolist() for col in self._phase_columns()]
                        if self.fine else None)
        # Result columns, filled as rows complete.
        self.r_start = [0.0] * n
        self.r_end = [0.0] * n
        self.r_collected = [0.0] * n
        self.r_attempts = [1] * n
        self.r_worker = [0] * n
        self.spec_rows: set[int] = set()
        self.values: list[Any] | None = (
            [None] * n if self.table.closures is not None else None)
        #: Worker-id snapshot at job start; results reference positions so a
        #: post-job ``replace_executor`` cannot rewrite history.
        self.worker_ids = [ex.worker_id for ex in executors]
        self.pos_of = {id(ex): i for i, ex in enumerate(executors)}
        stage = self.table.stage
        self.label_prefix = f"{stage}/" if stage else ""

    # --------------------------------------------------------------- the job
    def run(self, broadcasts: Sequence[Broadcast]) -> JobStats:
        alive = [ex for ex in self.executors if not ex.is_dead]
        if not alive:
            raise JobFailedError("no alive executors")
        clock, timeline, network = self.clock, self.timeline, self.network
        schedule, stats = self.schedule, self.stats
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

        # -------------------------------------------- launch + scatter + run
        n = len(self.table)
        launch_s = self.costs.task_launch_s
        record = timeline.record
        lan_time = network.lan_transfer_time
        tid, in_b, out_b = self.tid, self.in_b, self.out_b
        measure_out = self.values is not None
        pipelined = schedule.pipelined
        driver_cursor = ready0
        nic_cursor = ready0
        agg = self.agg
        coarse = agg is not None
        # Coarse driver-side spans are summed locally: busy continues the
        # entry's own sum span by span, as ``Timeline.record`` would.
        e_sched = e_intra = None
        sched_busy = intra_first = intra_busy = 0.0
        intra_n = 0
        if coarse and n:
            e_sched = agg.setdefault((Phase.SCHEDULING, "driver"),
                                     [0, float("inf"), float("-inf"), 0.0])
            sched_busy = e_sched[3]
        #: Pipelined mode: scattered rows whose result is due, as a heap of
        #: (end, task_id, row) — pop order is exactly the historical
        #: ``min(uncollected, key=(end, task_id))`` scan.
        uncollected: list[tuple[float, int, int]] = []
        for row in range(n):
            launch_start = driver_cursor
            driver_cursor += launch_s
            if coarse:
                sched_busy += driver_cursor - launch_start
            else:
                record(Phase.SCHEDULING, launch_start, driver_cursor,
                       resource="driver", label=f"launch-{tid[row]}")
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
                dt = lan_time(in_b[row])
                nic_cursor = x0 + dt
                if coarse:
                    if e_intra is None:
                        e_intra = self._entry(Phase.INTRA_TRANSFER,
                                              "driver-nic", row)
                        intra_first, intra_busy = x0, e_intra[3]
                    intra_n += 1
                    intra_busy += nic_cursor - x0
                else:
                    record(Phase.INTRA_TRANSFER, x0, nic_cursor,
                           resource="driver-nic", label=f"scatter-{tid[row]}")
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
                                   (self.r_end[row], tid[row], row))
                else:
                    self.r_collected[row] = self.r_end[row]
        if e_sched is not None:
            _settle(e_sched, n, ready0, driver_cursor, sched_busy)
        if e_intra is not None:
            # Scatters never start before the previous one ended: the first
            # starts earliest and the last ends latest.
            _settle(e_intra, intra_n, intra_first, nic_cursor, intra_busy)

        # ---------------------------------------------------------- collect
        collect_cursor = nic_cursor
        if pipelined:
            while uncollected:
                collect_cursor = self._collect_one(uncollected, collect_cursor,
                                                   n)
        else:
            ends = np.array(self.r_end)
            e_coll = None
            coll_n, coll_first, coll_busy = 0, 0.0, 0.0
            for row in np.lexsort((self.table.task_id, ends)).tolist():
                if out_b[row] > 0:
                    end = self.r_end[row]
                    c0 = end if end > collect_cursor else collect_cursor
                    dt = lan_time(out_b[row])
                    collect_cursor = c0 + dt
                    if coarse:
                        if e_coll is None:
                            e_coll = self._entry(Phase.COLLECT, "driver-nic",
                                                 n)
                            coll_first, coll_busy = c0, e_coll[3]
                        coll_n += 1
                        coll_busy += collect_cursor - c0
                    else:
                        record(Phase.COLLECT, c0, collect_cursor,
                               resource="driver-nic",
                               label=f"collect-{tid[row]}")
                    self.r_collected[row] = collect_cursor
                else:
                    self.r_collected[row] = self.r_end[row]
            if e_coll is not None:
                _settle(e_coll, coll_n, coll_first, collect_cursor, coll_busy)
        if coarse:
            self._fold_worker_phases()

        job_end = max(self.r_collected, default=ready0)
        clock.advance_to(max(job_end, clock.now))
        stats.makespan_s = job_end - t0
        stats.results = self._ordered_results()
        return stats

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
                    # its spans stay on the timeline, unlabelled as a task
                    # completion — no TaskEnd is emitted for a killed copy.
                    if self.fine:
                        self._record_task_spans(row, res.start, ex)
                    else:
                        self.losers.append((row, res.start,
                                            self.pos_of[id(ex)]))
                    return

            if self.fine:
                self._record_task_spans(row, res.start, ex)
            if self.bus.is_active:
                tid = self.tid[row]
                self.bus.emit(TaskStart(time=res.start, resource=ex.worker_id,
                                        task_id=tid, worker=ex.worker_id))
                self.bus.emit(TaskEnd(time=res.end, resource=ex.worker_id,
                                      task_id=tid, worker=ex.worker_id,
                                      duration_s=duration / ex.speed,
                                      attempts=attempts))
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
        if self.fine:
            self.timeline.record(Phase.SPECULATION, watch, launch_end,
                                 resource="driver", label=f"speculate-{tid}")
        else:
            e = self._entry(Phase.SPECULATION, "driver", row)
            _settle(e, 1, watch, launch_end, e[3] + (launch_end - watch))
        self.stats.speculated_tasks += 1
        bus = self.bus
        if bus.is_active:
            bus.emit(TaskSpeculated(time=watch, resource="driver",
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
        if self.fine:
            self._record_task_spans(row, copy.start, copy_ex,
                                    label_suffix="-spec")
        if bus.is_active:
            bus.emit(TaskStart(time=copy.start, resource=copy_ex.worker_id,
                               task_id=tid, worker=copy_ex.worker_id))
            bus.emit(TaskEnd(time=copy.end, resource=copy_ex.worker_id,
                             task_id=tid, worker=copy_ex.worker_id,
                             duration_s=duration / copy_ex.speed,
                             attempts=attempts))
            bus.emit(SpeculationWon(time=copy.end, resource=copy_ex.worker_id,
                                    task_id=tid,
                                    winner=copy_ex.worker_id,
                                    loser=original.worker_id, saved_s=saved))
        self.r_start[row] = copy.start
        self.r_end[row] = copy.end
        self.r_attempts[row] = attempts
        self.r_worker[row] = self.pos_of[id(copy_ex)]
        self.spec_rows.add(row)
        if self.values is not None:
            self.values[row] = value
        return True

    def _entry(self, phase: Phase, resource: str, row: int) -> list:
        """Coarse aggregate entry of a driver-side key the job touches at
        launch-loop ``row`` (``n`` once the loop is over).  A key the
        timeline does not have yet is held back in ``born`` with its row."""
        key = (phase, resource)
        e = self.driver_entries.get(key)
        if e is None:
            e = self.agg.get(key)
            if e is None:
                e = [0, float("inf"), float("-inf"), 0.0]
                self.born.append((row, key, e))
            self.driver_entries[key] = e
        return e

    def _collect_one(self, pending: list[tuple[float, int, int]],
                     cursor: float, at_row: int) -> float:
        """Stream the earliest-finished pending result back over the NIC
        (while the launch loop is at ``at_row``)."""
        end, tid, row = heapq.heappop(pending)
        c0 = end if end > cursor else cursor
        dt = self.network.lan_transfer_time(self.out_b[row])
        cursor = c0 + dt
        if self.fine:
            self.timeline.record(Phase.COLLECT, c0, cursor,
                                 resource="driver-nic", label=f"collect-{tid}")
        else:
            e = self._entry(Phase.COLLECT, "driver-nic", at_row)
            _settle(e, 1, c0, cursor, e[3] + (cursor - c0))
        self.r_collected[row] = cursor
        return cursor

    def _phase_columns(self) -> tuple[np.ndarray, ...]:
        t = self.table
        return (t.decompress_s, t.jni_s, t.compute_s, t.compress_s)

    def _fold_worker_phases(self) -> None:
        """Fold every task's worker-phase spans into the coarse aggregate.

        A task's spans chain from its start on one executor: each phase
        with ``dur > 0`` runs ``[cursor, cursor + dur / speed)``.  Each
        row's winning attempt is in the result columns; a straggling
        original that speculation beat follows its row's winner, as it did
        on the timeline.  Counts, envelopes and busy sums are NumPy
        group-bys over those spans.  ``np.add.at`` adds sequentially in
        record order from the value already in an entry, so busy sums are
        bit-identical to recording span by span (a pairwise ``np.sum``
        would not be).  Keys the job creates enter the aggregate in
        first-touch order, interleaved with the driver-side keys the launch
        loop created: those precede their row's worker spans.
        """
        agg, table = self.agg, self.table
        n = len(table)
        losers = np.array(self.losers, dtype=np.float64).reshape(-1, 3)
        loser_rows = losers[:, 0].astype(np.int64)
        at = loser_rows + 1
        rows = np.insert(np.arange(n, dtype=np.int64), at, loser_rows)
        cursor = np.insert(np.array(self.r_start), at, losers[:, 1])
        pos = np.insert(np.array(self.r_worker, dtype=np.int64), at,
                        losers[:, 2].astype(np.int64))
        # Record order within a row: the winner's four phases, then the
        # loser's.
        order = rows * 8 + np.insert(np.zeros(n, dtype=np.int64), at, 4)
        speed = np.array([ex.speed for ex in self.executors])[pos]
        names = list(dict.fromkeys(self.worker_ids))
        slot = {name: i for i, name in enumerate(names)}
        group = np.array([slot[w] for w in self.worker_ids],
                         dtype=np.int64)[pos]
        inf = float("inf")
        touched: list[tuple[int, tuple[Phase, str], list | None, list]] = []
        for p, (phase, col) in enumerate(zip(_WORKER_PHASES,
                                             self._phase_columns())):
            dur = col[rows]
            on = dur > 0.0
            nxt = np.where(on, cursor + dur / speed, cursor)
            g, start, end = group[on], cursor[on], nxt[on]
            cursor = nxt
            keys = [(phase, name) for name in names]
            old = [agg.get(k) for k in keys]
            count = np.bincount(g, minlength=len(names))
            lo = np.array([e[1] if e else inf for e in old])
            hi = np.array([e[2] if e else -inf for e in old])
            busy = np.array([e[3] if e else 0.0 for e in old])
            first = np.full(len(names), np.iinfo(np.int64).max)
            np.minimum.at(lo, g, start)
            np.maximum.at(hi, g, end)
            np.add.at(busy, g, end - start)
            np.minimum.at(first, g, order[on])
            for w in np.flatnonzero(count).tolist():
                touched.append((int(first[w]) + p, keys[w], old[w],
                                [int(count[w]), float(lo[w]), float(hi[w]),
                                 float(busy[w])]))
        touched.sort(key=lambda t: t[0])
        born = self.born
        b = 0
        for rank, key, e, (count, lo, hi, busy) in touched:
            while b < len(born) and born[b][0] * 8 <= rank:
                agg[born[b][1]] = born[b][2]
                b += 1
            if e is None:
                agg[key] = [count, lo, hi, busy]
            else:
                e[0] += count
                e[1], e[2], e[3] = lo, hi, busy
        for _row, key, e in born[b:]:
            agg[key] = e

    def _record_task_spans(self, row: int, start: float, ex: Executor,
                           label_suffix: str = "") -> None:
        """Record one attempt's worker phases on a fine timeline."""
        cursor = start
        speed = ex.speed
        record = self.timeline.record
        resource = ex.worker_id
        label = f"{self.label_prefix}task-{self.tid[row]}{label_suffix}"
        for phase, col in zip(_WORKER_PHASES, self.phase_s):
            dur = col[row]
            if dur > 0.0:
                scaled = dur / speed
                record(phase, cursor, cursor + scaled,
                       resource=resource, label=label)
                cursor += scaled
