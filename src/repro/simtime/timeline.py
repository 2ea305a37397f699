"""Phase timelines — the data behind Figure 5 of the paper.

The paper decomposes offload time into *host-target communication*, *Spark
overhead* and *computation*.  Internally we record finer-grained phases (gzip
compression, upload/download, broadcast, scheduling, intra-cluster shuffle,
JNI-style call overhead, the map computation itself) and roll them up into the
paper's three buckets with :meth:`Timeline.figure5_breakdown`.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np


class Phase(enum.Enum):
    """Fine-grained activity classes recorded during an offload run."""

    # Host-target communication (local machine <-> cloud storage).
    HOST_COMPRESS = "host_compress"
    HOST_UPLOAD = "host_upload"
    HOST_DOWNLOAD = "host_download"
    HOST_DECOMPRESS = "host_decompress"
    # Spark / cluster overhead.
    CLUSTER_INIT = "cluster_init"
    STORAGE_READ = "storage_read"
    STORAGE_WRITE = "storage_write"
    SCHEDULING = "scheduling"
    SPECULATION = "speculation"
    BROADCAST = "broadcast"
    INTRA_TRANSFER = "intra_transfer"
    WORKER_DECOMPRESS = "worker_decompress"
    WORKER_COMPRESS = "worker_compress"
    COLLECT = "collect"
    RECONSTRUCT = "reconstruct"
    JNI_CALL = "jni_call"
    # Persistent data environments (target data / target update).
    ENV_ENTER = "env_enter"
    ENV_EXIT = "env_exit"
    TARGET_UPDATE = "target_update"
    # Recovery activity (retries, job resubmission, spot replacement...).
    RETRY_BACKOFF = "retry_backoff"
    RESUBMIT = "resubmit"
    PREEMPTION = "preemption"
    RECOVERY = "recovery"
    FALLBACK = "fallback"
    # A fused submission: several chained regions running as one Spark job
    # (recorded on its own resource row, spanning the whole fused job).
    FUSED = "fused"
    # The useful work.
    COMPUTE = "compute"

    @property
    def bucket(self) -> str:
        """Figure-5 bucket this phase rolls up into."""
        return _BUCKET_OF[self]


#: The three stacked components of Figure 5.
BUCKET_HOST_COMM = "host-target communication"
BUCKET_SPARK = "spark overhead"
BUCKET_COMPUTE = "computation"
#: Extra stacked component, present only when fault recovery charged time
#: (the paper's fault-free runs keep the original three-bucket stack).
BUCKET_RESILIENCE = "resilience"

_BUCKET_OF: dict[Phase, str] = {
    Phase.HOST_COMPRESS: BUCKET_HOST_COMM,
    Phase.HOST_UPLOAD: BUCKET_HOST_COMM,
    Phase.HOST_DOWNLOAD: BUCKET_HOST_COMM,
    Phase.HOST_DECOMPRESS: BUCKET_HOST_COMM,
    Phase.CLUSTER_INIT: BUCKET_SPARK,
    Phase.STORAGE_READ: BUCKET_SPARK,
    Phase.STORAGE_WRITE: BUCKET_SPARK,
    Phase.SCHEDULING: BUCKET_SPARK,
    # Launching a speculative straggler copy is driver-side scheduling work.
    Phase.SPECULATION: BUCKET_SPARK,
    Phase.BROADCAST: BUCKET_SPARK,
    Phase.INTRA_TRANSFER: BUCKET_SPARK,
    Phase.WORKER_DECOMPRESS: BUCKET_SPARK,
    Phase.WORKER_COMPRESS: BUCKET_SPARK,
    Phase.COLLECT: BUCKET_SPARK,
    Phase.RECONSTRUCT: BUCKET_SPARK,
    Phase.JNI_CALL: BUCKET_SPARK,
    # Environment transfers move over the host-target channel, like the
    # per-offload staging they replace.
    Phase.ENV_ENTER: BUCKET_HOST_COMM,
    Phase.ENV_EXIT: BUCKET_HOST_COMM,
    Phase.TARGET_UPDATE: BUCKET_HOST_COMM,
    # Recovery phases: backoff is charged on the host side of the channel;
    # resubmission/preemption handling is cluster-side overhead.
    Phase.RETRY_BACKOFF: BUCKET_HOST_COMM,
    Phase.RESUBMIT: BUCKET_SPARK,
    Phase.PREEMPTION: BUCKET_SPARK,
    Phase.RECOVERY: BUCKET_SPARK,
    Phase.FALLBACK: BUCKET_HOST_COMM,
    Phase.FUSED: BUCKET_SPARK,
    Phase.COMPUTE: BUCKET_COMPUTE,
}


@dataclass(frozen=True)
class Span:
    """One contiguous activity on one resource, in simulated seconds."""

    phase: Phase
    start: float
    end: float
    resource: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self!r}")

    @property
    def duration(self) -> float:
        return self.end - self.start


class TaskLabel(NamedTuple):
    """A parsed task-span label (see :func:`task_labels`)."""

    kind: str
    task_id: int
    stage: str = ""
    spec: bool = False


def task_labels(kind: str, task_ids: Iterable[int], stage: str = "",
                spec: Iterable[bool] | None = None) -> list[str]:
    """Labels of the spans the scheduler records for tasks ``task_ids``.

    ``[<stage>/]<kind>-<task id>[-spec]``: ``kind`` is ``launch``,
    ``scatter``, ``speculate``, ``collect`` or (worker phases) ``task``;
    ``stage`` names the loop the tasks tile and ``spec`` flags the spans of
    speculative copies.  :func:`parse_task_label` is the inverse.
    """
    head = f"{stage}/{kind}-" if stage else f"{kind}-"
    if spec is None:
        return [f"{head}{t}" for t in task_ids]
    return [f"{head}{t}-spec" if s else f"{head}{t}"
            for t, s in zip(task_ids, spec)]


def task_label(kind: str, task_id: int, stage: str = "",
               spec: bool = False) -> str:
    """The label of one task's span (see :func:`task_labels`)."""
    return task_labels(kind, (task_id,), stage, (spec,))[0]


def parse_task_label(label: str) -> TaskLabel | None:
    """Inverse of :func:`task_labels`; ``None`` for a label not of its
    shape."""
    stage, _, rest = label.rpartition("/")
    kind, dash, tid = rest.partition("-")
    spec = tid.endswith("-spec")
    if spec:
        tid = tid[:-len("-spec")]
    if not dash or not tid.isdecimal():
        return None
    return TaskLabel(kind, int(tid), stage, spec)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for a, b in sorted(intervals):
        if cur_start is None:
            cur_start, cur_end = a, b
        elif a <= cur_end:
            cur_end = max(cur_end, b)
        else:
            total += cur_end - cur_start
            cur_start, cur_end = a, b
    if cur_start is not None:
        total += cur_end - cur_start
    return total


class SpanColumns(NamedTuple):
    """Spans of one phase as columns, for :meth:`Timeline.record_columns`.

    ``where`` indexes ``resources`` per span (``None``: every span is on
    ``resources[0]``).  Each resource's spans must be listed in record
    order, and no span may end before it starts.  ``log`` returns each
    span's rank (int64; the log orders spans by rank, equal ranks keeping
    run then column order) and its label; only a timeline that keeps a log
    calls it.
    """

    phase: Phase
    start: np.ndarray
    end: np.ndarray
    resources: Sequence[str]
    where: np.ndarray | None
    log: Callable[[], tuple[np.ndarray, Sequence[str]]]


#: Process default for :class:`Timeline` coarsening (see
#: :func:`coarse_timelines`).  Off by default: ordinary runs keep a span log.
_COARSE_DEFAULT = False


@contextmanager
def coarse_timelines(enabled: bool = True) -> Iterator[None]:
    """Make every :class:`Timeline` created in this scope coarse by default.

    A coarse timeline keeps no span log, only its per-(phase, resource)
    aggregates: per-worker segments instead of a million-element span list.
    The scaling bench wraps its giant runs in this; ordinary runs never
    coarsen unless asked, so recorded traces and baselines stay exact.
    """
    global _COARSE_DEFAULT
    prev = _COARSE_DEFAULT
    _COARSE_DEFAULT = bool(enabled)
    try:
        yield
    finally:
        _COARSE_DEFAULT = prev


class Timeline:
    """Recorded activity with roll-up queries.

    The *critical-path* semantics of an offload run live in the recorded start
    and end times, not the sum of durations: parallel uploads overlap, map
    tasks overlap.  ``wall(phase)`` therefore measures the union of intervals
    of a phase, while ``busy(phase)`` sums raw durations (resource-seconds).

    Every timeline keeps one aggregate per (phase, resource): the span
    count, the earliest start, the latest end and the busy-seconds sum, each
    entry summed in record order.  A fine timeline also keeps the log of
    individual :class:`Span`; a **coarse** one (``Timeline(coarse=True)``,
    or any timeline created under :func:`coarse_timelines`) keeps no log —
    1M task phases then cost O(workers) memory instead of a 4M-element span
    list.

    ``busy``, ``span`` and ``by_resource`` read only the aggregates
    (``busy``/``by_resource`` add entries with ``math.fsum``, so their
    result does not depend on key order).  ``spans`` is the log, or one
    merged segment per aggregate without one (what the gantt/trace
    exporters then show as per-worker segments); ``wall`` is exact over the
    log, and without one unions the merged segments, an upper bound.

    ``extend`` merges aggregates and concatenates logs; a fine timeline
    that absorbs a coarse one drops its log and becomes coarse.  A mixed
    chain — coarse job timeline -> long-lived fine accumulator -> coarse
    report — thus ends with the same aggregates as an all-coarse chain.
    """

    def __init__(self, coarse: bool | None = None) -> None:
        if coarse is None:
            coarse = _COARSE_DEFAULT
        #: (phase, resource) -> [count, min_start, max_end, busy_sum]
        self._agg: dict[tuple[Phase, str], list] = {}
        self._log: list[Span] | None = None if coarse else []

    @property
    def coarse(self) -> bool:
        """True when this timeline keeps no span log."""
        return self._log is None

    def record(
        self,
        phase: Phase,
        start: float,
        end: float,
        resource: str = "",
        label: str = "",
    ) -> Span | None:
        """Record one activity.  Returns the logged span, or None when this
        timeline is coarse."""
        if end < start:
            raise ValueError(
                f"span ends before it starts: {phase} [{start}, {end})")
        e = self._agg.get((phase, resource))
        if e is None:
            self._agg[(phase, resource)] = [1, start, end, end - start]
        else:
            e[0] += 1
            if start < e[1]:
                e[1] = start
            if end > e[2]:
                e[2] = end
            e[3] += end - start
        if self._log is None:
            return None
        span = Span(phase, start, end, resource, label)
        self._log.append(span)
        return span

    def record_columns(self, runs: Iterable[SpanColumns]) -> None:
        """Record many spans at once, given as columns (one phase per run).

        Counts, envelopes and busy sums are NumPy group-bys.  ``np.add.at``
        adds sequentially in column order from the value already in an
        entry, so busy sums are bit-identical to recording span by span (a
        pairwise ``np.sum`` would not be).  A timeline with a log appends
        every run's spans to it in rank order.
        """
        agg, log = self._agg, self._log
        ranks: list[np.ndarray] = []
        logged: list[Span] = []
        for phase, start, end, names, where, log_of in runs:
            if not len(start):
                continue
            g = where if where is not None else np.zeros(len(start), np.intp)
            old = [agg.get((phase, name)) for name in names]
            count = np.bincount(g, minlength=len(names))
            lo = np.array([e[1] if e else math.inf for e in old])
            hi = np.array([e[2] if e else -math.inf for e in old])
            busy = np.array([e[3] if e else 0.0 for e in old])
            np.minimum.at(lo, g, start)
            np.maximum.at(hi, g, end)
            np.add.at(busy, g, end - start)
            for w, (c, a, b, t) in enumerate(zip(
                    count.tolist(), lo.tolist(), hi.tolist(), busy.tolist())):
                if not c:
                    continue
                e = old[w]
                if e is None:
                    agg[(phase, names[w])] = [c, a, b, t]
                else:
                    e[0] += c
                    e[1], e[2], e[3] = a, b, t
            if log is not None:
                rank, label = log_of()
                ranks.append(rank)
                logged.extend([
                    Span(phase, a, b, names[w], tag) for a, b, w, tag in
                    zip(start.tolist(), end.tolist(), g.tolist(), label)])
            # Peak memory: free this run's columns before the next is built.
            del start, end, where, g
        if ranks:
            order = np.argsort(np.concatenate(ranks), kind="stable")
            log.extend([logged[i] for i in order.tolist()])

    def extend(self, other: "Timeline") -> None:
        """Absorb ``other``: merge its aggregates and append its log (or drop
        this one's, if ``other`` is coarse)."""
        agg = self._agg
        for key, (cnt, lo, hi, busy) in other._agg.items():
            e = agg.get(key)
            if e is None:
                agg[key] = [cnt, lo, hi, busy]
            else:
                e[0] += cnt
                e[1] = min(e[1], lo)
                e[2] = max(e[2], hi)
                e[3] += busy
        if self._log is not None:
            if other._log is None:
                self._log = None
            else:
                self._log.extend(other._log)

    @property
    def spans(self) -> tuple[Span, ...]:
        if self._log is not None:
            return tuple(self._log)
        return tuple(
            Span(phase, lo, hi, resource, f"coarse:{cnt}")
            for (phase, resource), (cnt, lo, hi, _busy) in sorted(
                self._agg.items(),
                key=lambda kv: (kv[1][1], kv[0][0].value, kv[0][1])))

    def __len__(self) -> int:
        return len(self._log) if self._log is not None else len(self._agg)

    def filter(self, phases: Iterable[Phase]) -> "Timeline":
        keep = set(phases)
        tl = Timeline(coarse=self.coarse)
        tl._agg = {k: list(v) for k, v in self._agg.items() if k[0] in keep}
        if self._log is not None:
            tl._log = [s for s in self._log if s.phase in keep]
        return tl

    def busy(self, phase: Phase | None = None) -> float:
        """Total resource-seconds spent in ``phase`` (all phases if None)."""
        return math.fsum(v[3] for k, v in self._agg.items()
                         if phase is None or k[0] == phase)

    def wall(self, phase: Phase | None = None) -> float:
        """Length of the union of intervals of ``phase`` (all phases if None).

        Exact over the log; a coarse timeline unions the merged
        per-(phase, resource) segments, an upper bound.
        """
        if self._log is not None:
            return union_length((s.start, s.end) for s in self._log
                                if phase is None or s.phase == phase)
        return union_length((v[1], v[2]) for k, v in self._agg.items()
                            if phase is None or k[0] == phase)

    def span(self, phases: Iterable[Phase] | None = None) -> float:
        """Makespan of ``phases`` (all if None): last end minus first start
        (0 when nothing was recorded)."""
        keep = None if phases is None else set(phases)
        entries = [v for k, v in self._agg.items()
                   if keep is None or k[0] in keep]
        if not entries:
            return 0.0
        return max(v[2] for v in entries) - min(v[1] for v in entries)

    def bucket_wall(self) -> dict[str, float]:
        """Union-of-intervals time per Figure-5 bucket."""
        out: dict[str, float] = {}
        for bucket in (BUCKET_HOST_COMM, BUCKET_SPARK, BUCKET_COMPUTE):
            phases = [p for p, b in _BUCKET_OF.items() if b == bucket]
            out[bucket] = self.filter(phases).wall()
        return out

    def figure5_breakdown(self, total: float | None = None) -> dict[str, float]:
        """Roll spans up into the paper's three stacked components.

        The three buckets are scaled so they sum to ``total`` (default: the
        observed makespan).  Scaling is needed because buckets overlap in time
        (computation proceeds while the next wave is being scheduled); Figure 5
        presents a stacked — i.e. partitioned — view.
        """
        walls = self.bucket_wall()
        s = sum(walls.values())
        total = self.span() if total is None else total
        if s <= 0.0:
            return {k: 0.0 for k in walls}
        return {k: v * total / s for k, v in walls.items()}

    def by_resource(self) -> Mapping[str, float]:
        """Busy seconds per resource name."""
        parts: dict[str, list[float]] = {}
        for (_phase, resource), v in self._agg.items():
            parts.setdefault(resource, []).append(v[3])
        return {r: math.fsum(p) for r, p in parts.items()}
