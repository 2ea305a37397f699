"""Property: weighted tiles partition [0, N) exactly, for any capacities.

The monotone cumulative-boundary rounding in
:func:`repro.core.tiling.tile_weighted` must produce tiles that cover every
iteration exactly once — no gaps, no overlap, no out-of-range work — for
adversarial iteration counts and capacity vectors (tiny floats, huge spreads,
zero-capacity slots).  A violation would mean the weighted schedule silently
computes the wrong loop.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import tile_weighted

from tests.oracles import as_tiles, tiles_cover

capacities = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        st.sampled_from([0.0, 1e-9, 1.0, 1e6]),
    ),
    min_size=1, max_size=64,
).filter(lambda caps: sum(caps) > 0.0)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=0, max_value=1_000_000), caps=capacities)
def test_weighted_tiles_partition_exactly(n, caps):
    tiles = as_tiles(tile_weighted(n, caps))
    # Exact cover: contiguous, in order, starting at 0 and ending at n.
    cursor = 0
    for tile in tiles:
        assert tile.lo == cursor
        assert tile.hi > tile.lo  # only non-empty tiles are emitted
        cursor = tile.hi
    assert cursor == n
    assert tiles_cover(tiles, n)
    # Contiguous indices so downstream task ids stay dense.
    assert [t.index for t in tiles] == list(range(len(tiles)))
    # Never more tiles than slots (a slot runs at most one weighted tile).
    assert len(tiles) <= len(caps)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=100_000),
       k=st.integers(min_value=1, max_value=32),
       cap=st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
def test_uniform_capacities_give_balanced_tiles(n, k, cap):
    """Equal capacities degenerate to (nearly) equal tiles: sizes differ by
    at most one, like Algorithm 1's floor(N/C) + remainder."""
    tiles = as_tiles(tile_weighted(n, [cap] * k))
    sizes = [t.size for t in tiles]
    assert max(sizes) - min(sizes) <= 1
