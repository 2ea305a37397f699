"""Partition analysis: Eq. 1-3 and the tile-widening rule.

The partitioning extension (Section III-B) attaches per-iteration element
ranges to mapped variables: ``map(to: A[i*N:(i+1)*N])`` says iteration ``i``
reads elements [i*N, (i+1)*N) of A.  After Algorithm 1 tiles the loop, "the
lower and upper bounds of the partitions will also be readjusted dynamically
according to the tiling size, hence increasing their granularity": tile
[lo, hi) owns elements [bound(lo).lower, bound(hi-1).upper).

Variables *without* a loop-dependent section (matrix B in the running
example) are not partitioned — every worker gets a full copy via broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.exprs import Expr, Num
from repro.core.omp_ast import MapItem, MapType


class PartitionError(Exception):
    """Inconsistent or invalid partition bounds."""


@dataclass(frozen=True)
class PartitionSpec:
    """How one mapped variable is distributed to workers."""

    name: str
    map_type: MapType
    lower: Expr | None = None  # None => not partitioned (broadcast/whole)
    upper: Expr | None = None
    loop_var: str = "i"

    @property
    def is_partitioned(self) -> bool:
        """Partitioned iff a section exists and depends on the loop variable."""
        if self.upper is None:
            return False
        deps = self.upper.variables() | (self.lower.variables() if self.lower else set())
        return self.loop_var in deps

    def element_range(self, iteration: int, env: Mapping[str, int]) -> tuple[int, int]:
        """Elements owned by one iteration (Eq. 2's V_IN(i) block)."""
        if self.upper is None:
            raise PartitionError(f"{self.name!r} has no section to evaluate")
        scope = dict(env)
        scope[self.loop_var] = iteration
        lo = self.lower.eval(scope) if self.lower is not None else 0
        hi = self.upper.eval(scope)
        if lo < 0 or hi < lo:
            raise PartitionError(
                f"{self.name!r}: bounds [{lo}, {hi}) invalid at {self.loop_var}={iteration}"
            )
        return lo, hi


def spec_from_map_item(item: MapItem, map_type: MapType, loop_var: str) -> PartitionSpec:
    return PartitionSpec(
        name=item.name,
        map_type=map_type,
        lower=item.lower if item.lower is not None else (Num(0) if item.upper is not None else None),
        upper=item.upper,
        loop_var=loop_var,
    )


def _element_ranges_vec(
    spec: PartitionSpec, iters: np.ndarray, env: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :meth:`PartitionSpec.element_range` over an iteration array.

    Raises the same :class:`PartitionError` (same message, first offending
    iteration) the scalar method would.
    """
    if spec.upper is None:
        raise PartitionError(f"{spec.name!r} has no section to evaluate")
    scope: dict = dict(env)
    scope[spec.loop_var] = iters
    lo = np.broadcast_to(
        np.asarray(spec.lower.eval_vec(scope) if spec.lower is not None else 0,
                   dtype=np.int64), iters.shape)
    hi = np.broadcast_to(np.asarray(spec.upper.eval_vec(scope), dtype=np.int64),
                         iters.shape)
    bad = (lo < 0) | (hi < lo)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise PartitionError(
            f"{spec.name!r}: bounds [{int(lo[j])}, {int(hi[j])}) invalid "
            f"at {spec.loop_var}={int(iters[j])}"
        )
    return lo, hi


def partition_windows(
    spec: PartitionSpec,
    tile_lo: np.ndarray,
    tile_hi: np.ndarray,
    env: Mapping[str, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Widened element ranges owned by each tile (the dynamic readjustment).

    Tile ``j`` covers iterations ``[tile_lo[j], tile_hi[j])`` and owns
    elements ``[element_range(tile_lo[j]).lower,
    element_range(tile_hi[j] - 1).upper)``; the result is that pair of int64
    columns ``(lo, hi)``.  One symbolic evaluation per bound expression
    instead of one per tile keeps million-task loops out of the interpreter
    (see docs/PERFORMANCE.md).

    Bounds must be monotone in the loop variable — the contiguous-block
    contract the paper's driver relies on when it "splits A according to the
    partitioning bound defined by the user".  Empty tiles, invalid bounds and
    non-monotone sections raise :class:`PartitionError` for the first
    offending tile instead of silently mis-splitting.
    """
    tile_lo = np.asarray(tile_lo, dtype=np.int64)
    tile_hi = np.asarray(tile_hi, dtype=np.int64)
    empty = tile_hi - tile_lo == 0
    if np.any(empty):
        j = int(np.argmax(empty))
        raise PartitionError(f"empty tile Tile(index={j}, lo={int(tile_lo[j])}, "
                             f"hi={int(tile_hi[j])})")
    first_lo, first_hi = _element_ranges_vec(spec, tile_lo, env)
    last_lo, last_hi = _element_ranges_vec(spec, tile_hi - 1, env)
    bad = (last_lo < first_lo) | (last_hi < first_hi)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise PartitionError(
            f"{spec.name!r}: partition bounds are not monotone in "
            f"{spec.loop_var!r} over tile [{int(tile_lo[j])}, {int(tile_hi[j])})"
        )
    return first_lo, last_hi
