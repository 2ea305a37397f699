"""Property tests: partitioning, tiling, and their composition.

These pin the structural invariants the execution model relies on (Eq. 1-3
and Algorithm 1): tiles are an exact cover of the iteration space, widened
partitions are an exact cover of the data, and range partitioning is an
exact, balanced cover.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exprs import parse_expr
from repro.core.omp_ast import MapType
from repro.core.partition import PartitionSpec
from repro.core.tiling import tile_iterations, untiled
from repro.spark.partitioner import owner_of, range_partition

from tests.oracles import (as_tiles, check_exact_cover, partition_for_tile,
                           tiles_cover)

sizes = st.integers(min_value=0, max_value=5000)
positive_sizes = st.integers(min_value=1, max_value=5000)
cores = st.integers(min_value=1, max_value=512)
parts = st.integers(min_value=1, max_value=64)


@given(n=sizes, c=cores)
def test_tiles_exactly_cover_iteration_space(n, c):
    assert tiles_cover(as_tiles(tile_iterations(n, c)), n)


@given(n=positive_sizes, c=cores)
def test_tile_count_close_to_cores(n, c):
    tiles = as_tiles(tile_iterations(n, c))
    if n >= c:
        # Algorithm 1: floor(N/C)-wide tiles -> between C and C + C/... tiles;
        # never more than 2C and never fewer than C.
        assert c <= len(tiles) <= 2 * c
    else:
        assert len(tiles) == n


@given(n=positive_sizes, c=cores)
def test_tile_sizes_uniform_except_tail(n, c):
    tiles = as_tiles(tile_iterations(n, c))
    widths = {t.size for t in tiles[:-1]}
    assert len(widths) <= 1  # all non-tail tiles share the width
    if widths:
        assert tiles[-1].size <= max(widths)


@given(n=sizes)
def test_untiled_covers(n):
    assert tiles_cover(as_tiles(untiled(n)), n)


@given(n=sizes, p=parts)
def test_range_partition_exact_cover(n, p):
    chunks = range_partition(n, p)
    assert len(chunks) == p
    covered = [x for lo, hi in chunks for x in range(lo, hi)]
    assert covered == list(range(n))


@given(n=sizes, p=parts)
def test_range_partition_balanced(n, p):
    sizes_ = [hi - lo for lo, hi in range_partition(n, p)]
    assert max(sizes_) - min(sizes_) <= 1


@given(n=positive_sizes, p=parts, data=st.data())
def test_owner_of_consistent_with_chunks(n, p, data):
    idx = data.draw(st.integers(min_value=0, max_value=n - 1))
    chunks = range_partition(n, p)
    owner = owner_of(idx, n, p)
    lo, hi = chunks[owner]
    assert lo <= idx < hi


@given(
    n=st.integers(min_value=1, max_value=300),
    c=st.integers(min_value=1, max_value=64),
    row=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=60)
def test_row_partition_tiles_cover_matrix(n, c, row):
    """map(to: A[i*R:(i+1)*R]) widened over Algorithm-1 tiles covers A
    exactly — the invariant the driver's split relies on."""
    spec = PartitionSpec(
        name="A",
        map_type=MapType.TO,
        lower=parse_expr("i*R"),
        upper=parse_expr("(i+1)*R"),
        loop_var="i",
    )
    tiles = as_tiles(tile_iterations(n, c))
    check_exact_cover(spec, tiles, {"R": row}, total_elements=n * row)


@given(
    n=st.integers(min_value=2, max_value=200),
    c=st.integers(min_value=1, max_value=32),
    row=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=60)
def test_tile_windows_are_disjoint_and_ordered(n, c, row):
    spec = PartitionSpec(
        name="A", map_type=MapType.TO,
        lower=parse_expr("i*R"), upper=parse_expr("(i+1)*R"), loop_var="i",
    )
    tiles = as_tiles(tile_iterations(n, c))
    windows = [partition_for_tile(spec, t, {"R": row}) for t in tiles]
    for (a_lo, a_hi), (b_lo, b_hi) in zip(windows, windows[1:]):
        assert a_hi == b_lo  # contiguous, disjoint, ordered
        assert a_lo < a_hi
