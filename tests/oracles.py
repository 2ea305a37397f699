"""Scalar reference implementations the vectorized code is checked against.

The simulator computes tiles, partition windows, tile flops, straggler
noise and task timings as NumPy columns, and delivers a job's tasks to the
event bus as one columnar batch.  These per-object versions state the same
rules one tile or one task at a time; the unit and property tests compare
the two bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.api import ParallelLoop
from repro.core.partition import PartitionError, PartitionSpec
from repro.obs.events import Event
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.subscribers import MetricsSubscriber
from repro.perfmodel.compute import ComputeModel


@dataclass(frozen=True)
class Tile:
    """One tile: iterations [lo, hi) of the original loop.

    ``lo == hi`` is a legal *empty* tile: it denotes zero iterations.
    """

    index: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi:
            raise ValueError(f"bad tile bounds [{self.lo}, {self.hi})")

    @property
    def size(self) -> int:
        return self.hi - self.lo


def as_tiles(columns) -> list[Tile]:
    """Tile objects for a tiler's ``(lo, hi)`` columns (index = position)."""
    lo, hi = columns
    return [Tile(j, a, b) for j, (a, b) in enumerate(zip(lo.tolist(),
                                                        hi.tolist()))]


def tiles_cover(tiles: list[Tile], n: int) -> bool:
    """True when the tiles partition ``range(n)`` exactly.

    Empty tiles are ignored: they contribute no iterations, so they can sit
    anywhere without breaking the cover.
    """
    cursor = 0
    for lo, hi in sorted((t.lo, t.hi) for t in tiles if t.size > 0):
        if lo != cursor:
            return False
        cursor = hi
    return cursor == n


def partition_for_tile(
    spec: PartitionSpec, tile: Tile, env: Mapping[str, int]
) -> tuple[int, int]:
    """Widened element range owned by ``tile`` (the dynamic readjustment)."""
    if tile.size == 0:
        raise PartitionError(f"empty tile {tile}")
    first_lo, first_hi = spec.element_range(tile.lo, env)
    last_lo, last_hi = spec.element_range(tile.hi - 1, env)
    if last_lo < first_lo or last_hi < first_hi:
        raise PartitionError(
            f"{spec.name!r}: partition bounds are not monotone in {spec.loop_var!r} "
            f"over tile [{tile.lo}, {tile.hi})"
        )
    return first_lo, last_hi


def check_exact_cover(
    spec: PartitionSpec,
    tiles: list[Tile],
    env: Mapping[str, int],
    total_elements: int,
) -> None:
    """Verify the tiles' widened ranges tile the variable exactly (no
    overlap, no gap, full coverage)."""
    cursor = 0
    for tile in sorted(tiles, key=lambda t: t.lo):
        lo, hi = partition_for_tile(spec, tile, env)
        if lo != cursor:
            raise PartitionError(
                f"{spec.name!r}: partition gap/overlap at element {cursor} "
                f"(tile [{tile.lo},{tile.hi}) starts at {lo})"
            )
        cursor = hi
    if cursor != total_elements:
        raise PartitionError(
            f"{spec.name!r}: partitions cover [0, {cursor}) but the variable "
            f"has {total_elements} elements"
        )


@dataclass(frozen=True)
class TaskTiming:
    """Modelled durations of one map task's slot occupancy."""

    compute_s: float
    jni_s: float


def task_timing(
    model: ComputeModel,
    tile_flops: float,
    tasks_on_node: int,
    slots_per_node: int,
    intensity: float,
    task_index: int = 0,
    jni_calls: int = 1,
) -> TaskTiming:
    """Slot time of one map task computing ``tile_flops``."""
    base = model.sequential_time(tile_flops)
    cont = model.contention_factor(tasks_on_node, slots_per_node, intensity)
    noise = float(model.straggler_noise(np.array([task_index]))[0])
    compute = base * (1.0 + model.cal.jni_efficiency_loss) * cont * noise
    return TaskTiming(compute_s=compute,
                      jni_s=model.cal.jni_call_s * max(0, jni_calls))


def tile_flops_reference(loop: ParallelLoop, lo: int, hi: int,
                         env: Mapping[str, int | float]) -> float:
    """Flops of tile ``[lo, hi)``: one call per iteration, added in order.

    An explicit loop, not ``sum()``, whose float rounding changed in
    Python 3.12 (compensated summation).
    """
    fpi = loop.flops_per_iter
    if fpi is None:
        return 0.0
    if not callable(fpi):
        return float(fpi) * (hi - lo)
    acc = 0.0
    for i in range(lo, hi):
        acc += float(fpi(i, env))
    return acc


def straggler_noise_reference(seed: int, sigma: float, task_index: int) -> float:
    """The straggler multiplier of one task from a fresh NumPy Generator."""
    if sigma <= 0.0:
        return 1.0
    rng = np.random.default_rng((seed, task_index))
    return float(rng.lognormal(mean=-(sigma**2) / 2.0, sigma=sigma))


def fold_task_events_reference(events: Iterable[Event],
                               registry: MetricsRegistry | None = None,
                               ) -> MetricsRegistry:
    """Fold a recorded event stream into ``registry`` the way a
    :class:`MetricsSubscriber` folded per-task events.

    Every event but a ``task_batch`` goes to the subscriber as is.  Each
    batch row, in order, runs the old ``task_start`` branch and then the old
    ``task_end`` branch: one gauge step, one counter increment and one
    histogram observation per task.
    """
    sub = MetricsSubscriber(registry)
    for e in events:
        if e.kind != "task_batch":
            sub(e)
            continue
        for pos, duration in zip(e.worker_pos.tolist(), e.duration_s.tolist()):
            worker = e.worker_ids[pos]
            # task_start
            sub._active_tasks.inc()
            if worker not in sub._workers:
                sub._workers.add(worker)
                sub._workers_seen.set(len(sub._workers))
            # task_end
            sub._active_tasks.dec()
            sub._tasks.inc(worker=worker)
            sub._task_seconds.observe(duration)
    return sub.registry
