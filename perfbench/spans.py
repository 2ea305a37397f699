"""In-memory spans around calls into the program's public functions.

A :class:`Tracer` replaces chosen callables on their owning class or module
with timing wrappers for the length of a traced run, and puts the originals
back when the run ends.  Each call records one :class:`Span`: its name, start
and end (``perf_counter`` seconds), the innermost open span of the same
thread as its parent, and the id of the benchmark operation in flight.  Spans
stay in memory until the benchmark writes them out at the end.

Nothing here is imported by the program under test: the spans sit at the
layer boundaries the benchmark can reach from outside.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Iterator

#: ``observe(args, result, exc)`` runs after a wrapped call returns (``exc``
#: is None) or raises (``result`` is None); it feeds :attr:`Tracer.counts`.
Observer = Callable[[tuple, object, "BaseException | None"], None]


class Span:
    """One timed call."""

    __slots__ = ("name", "start", "end", "parent", "offload")

    def __init__(self, name: str, start: float, parent: "Span | None",
                 offload: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.offload = offload

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Counts fed by observers (bytes moved, cache hits, ...).
        self.counts: Counter[str] = Counter()
        #: Id of the benchmark operation in flight; set by the runner so that
        #: spans of one operation share it, threads included.
        self.offload = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def traced(self, name: str, fn: Callable,
               observe: Observer | None = None) -> Callable:
        """``fn`` wrapped so that each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(name, perf_counter(), stack[-1] if stack else None,
                        self.offload)
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args, None, exc)
                raise
            span.end = perf_counter()
            stack.pop()
            if observe is not None:
                observe(args, result, None)
            return result

        return wrapper

    # ------------------------------------------------------------- patching
    def wrap(self, owner: object, attr: str, name: str,
             observe: Observer | None = None) -> None:
        """Replace ``owner.attr`` (a plain function on a class or module)
        with its traced version until :meth:`unwrap_all`."""
        self.patch(owner, attr, self.traced(name, _plain(owner, attr), observe))

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`unwrap_all`."""
        self._saved.append((owner, attr, _plain(owner, attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Restore every wrapped callable, most recent first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def patched(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        """Run ``install(self)`` (a series of :meth:`wrap` calls) and undo
        it on exit, also when the traced run raises."""
        try:
            install(self)
            yield self
        finally:
            self.unwrap_all()


def _plain(owner: object, attr: str) -> Callable:
    original = (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))
    if not callable(original) or isinstance(original, (staticmethod, classmethod)):
        raise TypeError(f"cannot trace {owner!r}.{attr}: not a plain function")
    return original


# ----------------------------------------------------------------- analysis
def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """``id(span) -> self time``: the span's duration minus the part of its
    interval that its child spans cover (overlapping children are merged, so
    no instant is subtracted twice)."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(s)] = s.duration - covered
    return out


def outermost(spans: Iterable[Span]) -> list[Span]:
    """Spans with no ancestor of the same name, so that a recursive call is
    not counted twice in a total."""
    out = []
    for s in spans:
        p = s.parent
        while p is not None and p.name != s.name:
            p = p.parent
        if p is None:
            out.append(s)
    return out


class SpanSummary:
    """Totals by span name over one traced run."""

    def __init__(self, spans: list[Span]) -> None:
        self._self = self_times(spans)
        self._all: dict[str, list[Span]] = {}
        self._outer: dict[str, list[Span]] = {}
        for s in spans:
            self._all.setdefault(s.name, []).append(s)
        for s in outermost(spans):
            self._outer.setdefault(s.name, []).append(s)

    def calls(self, *names: str) -> int:
        return sum(len(self._all.get(n, ())) for n in names)

    def total_s(self, *names: str) -> float:
        """Wall time inside the named calls, nested repeats counted once."""
        return sum(s.duration for n in names for s in self._outer.get(n, ()))

    def self_s(self, *names: str) -> float:
        return sum(self._self[id(s)] for n in names
                   for s in self._all.get(n, ()))


def span_records(spans: list[Span]) -> list[list]:
    """JSON-ready rows ``[id, parent_id, name, start, end, offload]``."""
    ids = {id(s): i for i, s in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    return [[ids[id(s)], ids.get(id(s.parent), -1) if s.parent else -1,
             s.name, s.start - t0, s.end - t0, s.offload] for s in spans]
