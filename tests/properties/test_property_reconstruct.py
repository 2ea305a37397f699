"""Property tests on the output-reconstruction paths (Eq. 8-10).

* scatter-then-reconstruct of partitioned outputs is the identity;
* bitwise-or over zero-initialized disjoint partials reassembles the array;
* the reduction combiner is order-insensitive for the commutative operators
  OmpCloud uses.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import tile_iterations
from repro.spark.partitioner import range_partition


@given(
    n=st.integers(min_value=1, max_value=500),
    c=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80)
def test_scatter_reconstruct_identity(n, c, seed):
    rng = np.random.default_rng(seed)
    original = rng.uniform(-10, 10, n).astype(np.float32)
    rebuilt = np.empty_like(original)
    lo, hi = tile_iterations(n, c)
    for t_lo, t_hi in zip(lo.tolist(), hi.tolist()):
        window = original[t_lo:t_hi].copy()  # scatter
        rebuilt[t_lo:t_hi] = window  # indexed write (Eq. 8, case 1)
    assert np.array_equal(original, rebuilt)


@given(
    n=st.integers(min_value=1, max_value=300),
    c=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80)
def test_bitor_reconstruction_of_disjoint_writes(n, c, seed):
    """Each worker returns a full-size zero array with only its slice filled;
    the byte-wise OR equals the dense concatenation (Eq. 8, case 2)."""
    rng = np.random.default_rng(seed)
    truth = rng.uniform(-10, 10, n).astype(np.float32)
    partials = []
    for lo, hi in range_partition(n, c):
        p = np.zeros(n, dtype=np.float32)
        p[lo:hi] = truth[lo:hi]
        partials.append(p)
    acc = np.zeros(n, dtype=np.float32)
    acc_u8 = acc.view(np.uint8)
    for p in partials:
        np.bitwise_or(acc_u8, p.view(np.uint8), out=acc_u8)
    assert np.array_equal(acc, truth)


@given(
    values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=100)
def test_max_min_reduction_order_insensitive(values, seed):
    from repro.core.omp_ast import REDUCTION_OPS

    rng = np.random.default_rng(seed)
    shuffled = list(values)
    rng.shuffle(shuffled)
    for op in ("max", "min"):
        identity, combine = REDUCTION_OPS[op]
        acc_a, acc_b = identity, identity
        for v in values:
            acc_a = combine(acc_a, v)
        for v in shuffled:
            acc_b = combine(acc_b, v)
        assert acc_a == acc_b


@given(
    values=st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=100)
def test_bitwise_reduction_ops_order_insensitive(values, seed):
    from repro.core.omp_ast import REDUCTION_OPS

    rng = np.random.default_rng(seed)
    shuffled = list(values)
    rng.shuffle(shuffled)
    for op in ("|", "&", "^"):
        identity, combine = REDUCTION_OPS[op]
        acc_a, acc_b = identity, identity
        for v in values:
            acc_a = combine(acc_a, v)
        for v in shuffled:
            acc_b = combine(acc_b, v)
        assert acc_a == acc_b


@given(
    n=st.integers(min_value=1, max_value=100),
    c=st.integers(min_value=1, max_value=16),
    n_parts=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60)
def test_sum_reduction_partition_invariant(n, c, n_parts, seed):
    """Summing per-tile partials equals the global sum regardless of tiling
    (float64 accumulators, so associativity holds exactly enough)."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-1000, 1000, n).astype(np.float64)
    total = data.sum()
    lo, hi = tile_iterations(n, c)
    partials = [data[a:b].sum() for a, b in zip(lo.tolist(), hi.tolist())]
    assert np.isclose(sum(partials), total, rtol=1e-12, atol=1e-9)
