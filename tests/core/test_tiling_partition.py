"""Algorithm 1 tiling and Eq. 1-3 partition analysis."""

import numpy as np
import pytest

from repro.core.exprs import parse_expr
from repro.core.omp_ast import MapType
from repro.core.parser import parse_pragma
from repro.core.partition import (
    PartitionError,
    PartitionSpec,
    partition_windows,
    spec_from_map_item,
)
from repro.core.tiling import tile_iterations, untiled

from tests.oracles import (Tile, as_tiles, check_exact_cover,
                           partition_for_tile, tiles_cover)


def _spans(columns):
    lo, hi = columns
    return list(zip(lo.tolist(), hi.tolist()))


# -------------------------------------------------------------------- tiling
def test_exact_division():
    assert _spans(tile_iterations(16, 4)) == [(0, 4), (4, 8), (8, 12), (12, 16)]


def test_remainder_becomes_trailing_tile():
    # width = floor(10/4) = 2 -> 5 tiles, Algorithm 1's clamped upper bound.
    assert _spans(tile_iterations(10, 4)) == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]


def test_more_cores_than_iterations_gives_unit_tiles():
    assert _spans(tile_iterations(3, 100)) == [(0, 1), (1, 2), (2, 3)]


def test_one_core_one_tile():
    assert _spans(tile_iterations(7, 1)) == [(0, 7)]


def test_zero_iterations():
    assert _spans(tile_iterations(0, 4)) == []


def test_tiles_always_cover():
    for n in (1, 5, 16, 100, 12345):
        for c in (1, 3, 8, 16, 256, 1000):
            assert tiles_cover(as_tiles(tile_iterations(n, c)), n)


def test_tile_indices_sequential():
    lo, hi = tile_iterations(100, 7)
    # A tile's index is its position; the columns run in iteration order.
    assert lo.dtype == hi.dtype == np.int64
    assert (lo[1:] == hi[:-1]).all()


def test_untiled_one_iteration_per_tile():
    tiles = as_tiles(untiled(5))
    assert all(t.size == 1 for t in tiles)
    assert tiles_cover(tiles, 5)


def test_tiled_task_count_near_core_count():
    # The point of Algorithm 1: ~C tasks, not N.
    n, c = 16384, 256
    lo, _hi = tile_iterations(n, c)
    assert c <= len(lo) <= c + 1
    assert len(untiled(n)[0]) == n


def test_invalid_tiling_arguments():
    with pytest.raises(ValueError):
        tile_iterations(-1, 4)
    with pytest.raises(ValueError):
        tile_iterations(4, 0)
    with pytest.raises(ValueError):
        Tile(index=0, lo=5, hi=3)


def test_tiles_cover_detects_gap_and_overlap():
    assert not tiles_cover([Tile(0, 0, 2), Tile(1, 3, 5)], 5)  # gap
    assert not tiles_cover([Tile(0, 0, 3), Tile(1, 2, 5)], 5)  # overlap
    assert not tiles_cover([Tile(0, 0, 3)], 5)  # short


# ----------------------------------------------------------------- partitions
def _row_spec(name="A", map_type=MapType.TO):
    return PartitionSpec(
        name=name,
        map_type=map_type,
        lower=parse_expr("i*N"),
        upper=parse_expr("(i+1)*N"),
        loop_var="i",
    )


def test_element_range_per_iteration():
    spec = _row_spec()
    assert spec.element_range(0, {"N": 10}) == (0, 10)
    assert spec.element_range(3, {"N": 10}) == (30, 40)


def test_is_partitioned_requires_loop_var():
    assert _row_spec().is_partitioned
    whole = PartitionSpec("B", MapType.TO, lower=None, upper=None)
    assert not whole.is_partitioned
    fixed = PartitionSpec(
        "B", MapType.TO, lower=parse_expr("0"), upper=parse_expr("N*N"), loop_var="i"
    )
    assert not fixed.is_partitioned  # bounds do not mention i


def test_tile_widening_merges_iteration_ranges():
    spec = _row_spec()
    tile = Tile(index=0, lo=2, hi=5)
    assert partition_for_tile(spec, tile, {"N": 10}) == (20, 50)


def test_tile_widening_single_iteration():
    spec = _row_spec()
    assert partition_for_tile(spec, Tile(0, 4, 5), {"N": 8}) == (32, 40)


def test_non_monotone_bounds_rejected():
    spec = PartitionSpec(
        "A", MapType.TO,
        lower=parse_expr("(N-i)*N"), upper=parse_expr("(N-i+1)*N"), loop_var="i",
    )
    with pytest.raises(PartitionError, match="monotone"):
        partition_for_tile(spec, Tile(0, 0, 3), {"N": 10})


def test_negative_bounds_rejected():
    spec = PartitionSpec(
        "A", MapType.TO, lower=parse_expr("i-5"), upper=parse_expr("i"), loop_var="i"
    )
    with pytest.raises(PartitionError):
        spec.element_range(0, {})


def test_empty_tile_rejected():
    with pytest.raises(PartitionError):
        partition_for_tile(_row_spec(), Tile(0, 3, 3), {"N": 4})
    with pytest.raises(PartitionError, match="empty tile"):
        partition_windows(_row_spec(), np.array([0, 3]), np.array([3, 3]),
                          {"N": 4})


def test_exact_cover_accepts_row_partitioning():
    spec = _row_spec()
    tiles = as_tiles(tile_iterations(12, 4))
    check_exact_cover(spec, tiles, {"N": 7}, total_elements=12 * 7)


def test_exact_cover_detects_short_coverage():
    spec = _row_spec()
    tiles = as_tiles(tile_iterations(10, 2))
    with pytest.raises(PartitionError):
        check_exact_cover(spec, tiles, {"N": 7}, total_elements=11 * 7)


def test_spec_from_map_item_defaults_lower_to_zero():
    pragma = parse_pragma("omp target data map(to: A[:(i+1)*N])")
    item = pragma.map_items()[0]
    spec = spec_from_map_item(item, MapType.TO, "i")
    assert spec.element_range(2, {"N": 5}) == (0, 15)
