"""``ParallelLoop.tile_flops`` against a per-iteration sequential loop.

The columnar version calls a flops callable once over every iteration and
adds each tile in iteration order; ``tests.oracles.tile_flops_reference``
calls it once per iteration and adds with an explicit ``+=``.  The two
must agree to the last bit on any tiling — contiguous cuts with empty
tiles, or the non-contiguous subsets a resumed job schedules — for
fractional and iteration-dependent flops alike.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import ParallelLoop

from tests.oracles import tile_flops_reference

FLOPS = {
    "fractional": lambda i, env: 0.1 * i + 1 / 3,
    "descending": lambda i, env: (env["N"] - i) * 1.1,
    "quadratic": lambda i, env: 2.0 * env["N"] ** 2 + 0.7,
    "identity": lambda i, env: i,
    "constant": 3.7,
    "none": None,
}


def _loop(flops) -> ParallelLoop:
    return ParallelLoop(pragma="omp parallel for", loop_var="i", trip_count="N",
                        reads=("A",), writes=("C",), flops_per_iter=flops)


@st.composite
def tilings(draw):
    n = draw(st.integers(0, 300))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=12)))
    bounds = [0, *cuts, n]
    tiles = list(zip(bounds[:-1], bounds[1:]))
    # A resumed job runs only the tiles without a checkpoint.
    keep = draw(st.lists(st.booleans(), min_size=len(tiles), max_size=len(tiles)))
    if any(keep) and not all(keep) and draw(st.booleans()):
        tiles = [t for t, k in zip(tiles, keep) if k]
    return n, tiles


@settings(max_examples=120, deadline=None)
@given(tilings(), st.sampled_from(sorted(FLOPS)))
def test_tile_flops_match_sequential_loop(tiling, kind):
    n, tiles = tiling
    loop = _loop(FLOPS[kind])
    env = {"N": n}
    lo = np.array([a for a, _ in tiles], dtype=np.int64)
    hi = np.array([b for _, b in tiles], dtype=np.int64)
    got = loop.tile_flops(lo, hi, env)
    assert got.dtype == np.float64
    assert got.tolist() == [tile_flops_reference(loop, a, b, env) for a, b in tiles]


def test_non_contiguous_tiling_skips_the_gaps():
    loop = _loop(FLOPS["fractional"])
    tiles = [(2, 5), (9, 9), (11, 17), (40, 41)]
    lo, hi = (np.array(c, dtype=np.int64) for c in zip(*tiles))
    got = loop.tile_flops(lo, hi, {"N": 64})
    assert got.tolist() == [tile_flops_reference(loop, a, b, {"N": 64}) for a, b in tiles]


def test_tile_sum_is_sequential_on_every_interpreter():
    # sum([0.1] * 10) is 0.9999999999999999 with plain left-to-right
    # addition but 1.0 under Python 3.12's compensated sum().
    loop = _loop(lambda i, env: 0.1)
    got = loop.tile_flops(np.array([0]), np.array([10]), {})
    assert got.tolist() == [0.9999999999999999]
