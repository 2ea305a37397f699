"""Capacity-weighted tiling and empty-tile semantics (docs/SCHEDULING.md)."""

import numpy as np
import pytest

from repro.core.tiling import drop_empty_tiles, tile_weighted

from tests.oracles import Tile, as_tiles, tiles_cover


def _spans(columns):
    lo, hi = columns
    return list(zip(lo.tolist(), hi.tolist()))


def test_weighted_equal_capacities_match_algorithm_1_shape():
    tiles = tile_weighted(100, [1.0, 1.0, 1.0, 1.0])
    assert _spans(tiles) == [(0, 25), (25, 50), (50, 75), (75, 100)]


def test_weighted_tiles_proportional_to_capacity():
    tiles = tile_weighted(100, [2.0, 1.0, 1.0])
    assert _spans(tiles) == [(0, 50), (50, 75), (75, 100)]


def test_weighted_half_speed_slot_gets_half_the_rows():
    tiles = tile_weighted(10, [1.0, 1.0, 0.5])
    assert _spans(tiles) == [(0, 4), (4, 8), (8, 10)]


def test_weighted_zero_capacity_slot_gets_nothing():
    tiles = tile_weighted(10, [1.0, 0.0, 1.0])
    assert _spans(tiles) == [(0, 5), (5, 10)]
    assert [t.index for t in as_tiles(tiles)] == [0, 1]


def test_weighted_more_slots_than_iterations():
    tiles = as_tiles(tile_weighted(2, [1.0] * 8))
    assert tiles_cover(tiles, 2)
    assert all(t.size > 0 for t in tiles)


def test_weighted_zero_iterations():
    assert _spans(tile_weighted(0, [1.0, 2.0])) == []


@pytest.mark.parametrize("n, caps", [
    (-1, [1.0]),
    (4, []),
    (4, [0.0, 0.0]),
    (4, [-1.0, 2.0]),
    (4, [float("inf")]),
    (4, [float("nan")]),
])
def test_weighted_rejects_bad_inputs(n, caps):
    with pytest.raises(ValueError):
        tile_weighted(n, caps)


# ------------------------------------------------------------- empty tiles
def test_zero_size_tile_is_legal():
    t = Tile(index=0, lo=5, hi=5)
    assert t.size == 0


def test_negative_tile_still_rejected():
    with pytest.raises(ValueError):
        Tile(index=0, lo=5, hi=4)


def test_drop_empty_tiles_renumbers():
    kept = drop_empty_tiles(np.array([0, 3, 3]), np.array([3, 3, 7]))
    assert _spans(kept) == [(0, 3), (3, 7)]
    # Indices are positions: the survivors are renumbered 0, 1.
    assert [t.index for t in as_tiles(kept)] == [0, 1]


def test_tiles_cover_ignores_empty_tiles():
    tiles = [Tile(index=0, lo=0, hi=4), Tile(index=1, lo=4, hi=4),
             Tile(index=2, lo=4, hi=8)]
    assert tiles_cover(tiles, 8)
