"""Algorithm 1: tiling the parallel loop to the cluster size.

"Since each iteration will require one call to JNI, the closer the number of
iterations is to the number of cores, the smaller will be the overhead."  The
transformed loop runs ``ii`` over tiles of size ``floor(N/C)``:

    for ii = 0 to N-1 by floor(N/C):
        for i = ii to min(ii + floor(N/C) - 1, N-1):
            loopbody

The total core count C "is passed as an argument when Spark is calling the
map functions to avoid any recompilation when executing on different
clusters" — here, ``tile_iterations`` is evaluated at job-generation time
with the live cluster's core count.

Every tiler returns the tiles as two parallel int64 columns ``(lo, hi)``:
tile ``j`` covers iterations ``[lo[j], hi[j])`` and its index is its array
position.  ``lo == hi`` is a legal *empty* tile (zero iterations, the way
``range_partition(n, parts)`` yields empty chunks when ``parts > n``); empty
tiles are values, not work — the job generator drops them with
:func:`drop_empty_tiles` before any task is built, so no launch, JNI call or
transfer is ever charged for one.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Tile bounds as parallel int64 columns ``(lo, hi)``.
TileColumns = tuple[np.ndarray, np.ndarray]


def _chunks(n: int, width: int) -> TileColumns:
    lo = np.arange(0, n, width, dtype=np.int64)
    return lo, np.minimum(lo + width, n)


def tile_iterations(n: int, cores: int) -> TileColumns:
    """Transcription of Algorithm 1.

    Tiles are ``floor(N/C)`` wide; because N rarely divides C exactly, the
    trailing remainder becomes one extra (smaller) tile — the algorithm's
    ``min(ii + floor(N/C) - 1, N-1)`` upper clamp.  When ``C >= N`` the tile
    width clamps to 1 (one iteration per task; no fewer is possible).

    >>> lo, hi = tile_iterations(10, 4)
    >>> list(zip(lo.tolist(), hi.tolist()))
    [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    """
    if n < 0:
        raise ValueError(f"negative trip count {n!r}")
    if cores < 1:
        raise ValueError(f"need at least one core, got {cores!r}")
    return _chunks(n, max(1, n // cores))


def untiled(n: int) -> TileColumns:
    """The original loop: one tile per iteration (the ablation baseline —
    every iteration pays a JNI call and a task launch)."""
    if n < 0:
        raise ValueError(f"negative trip count {n!r}")
    return _chunks(n, 1)


def tile_weighted(n: int, capacities: Sequence[float]) -> TileColumns:
    """Capacity-aware tiling — schedule mode ``weighted``.

    Algorithm 1 sizes every tile to ``floor(N/C)`` because it assumes C
    identical, healthy cores.  On a heterogeneous or degraded cluster the
    slowest slot then owns the critical path.  Here ``capacities`` carries
    one relative speed per task slot (cluster order:
    :meth:`~repro.spark.cluster.SparkCluster.slot_capacities`), and the
    iteration space is split at the cumulative-capacity boundaries

        bound_k = round(N * (c_1 + ... + c_k) / total)

    — Eq. 3's widened partition bounds, with capacity replacing the uniform
    tile width.  The boundaries are monotone by construction, so the tiles
    partition ``[0, N)`` exactly, with no overlap; a zero-capacity slot
    contributes no boundary movement and therefore gets no tile.  Empty
    tiles are dropped, so indices stay contiguous.

    >>> lo, hi = tile_weighted(10, [1.0, 1.0, 0.5])
    >>> list(zip(lo.tolist(), hi.tolist()))
    [(0, 4), (4, 8), (8, 10)]
    """
    if n < 0:
        raise ValueError(f"negative trip count {n!r}")
    caps = [float(c) for c in capacities]
    if not caps:
        raise ValueError("tile_weighted needs at least one slot capacity")
    if any(not math.isfinite(c) or c < 0.0 for c in caps):
        raise ValueError(f"slot capacities must be finite and >= 0, got {caps!r}")
    total = sum(caps)
    if total <= 0.0:
        raise ValueError("total slot capacity must be > 0")
    if n == 0:
        return _chunks(0, 1)
    bounds = [0]
    cum = 0.0
    for c in caps:
        cum += c
        bounds.append(min(n, round(n * cum / total)))
    bounds[-1] = n  # float round-off must never drop trailing iterations
    b = np.array(bounds, dtype=np.int64)
    return drop_empty_tiles(b[:-1], b[1:])


def drop_empty_tiles(lo: np.ndarray, hi: np.ndarray) -> TileColumns:
    """Remove zero-size tiles; the survivors are renumbered by position.

    The scheduler-facing half of the empty-tile contract (see the module
    docstring): an empty tile is representable but never schedulable.
    """
    keep = hi > lo
    return lo[keep], hi[keep]


def tile_by_chunk(n: int, chunk: int) -> TileColumns:
    """Fixed-width tiles for an explicit ``schedule(static|dynamic, chunk)``.

    OpenMP's chunked schedules override Algorithm 1's cluster-size width: the
    programmer trades per-task overhead for finer-grained load balancing.
    """
    if n < 0:
        raise ValueError(f"negative trip count {n!r}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk!r}")
    return _chunks(n, chunk)
