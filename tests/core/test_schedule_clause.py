"""schedule(...) clause: chunked tiling overrides Algorithm 1."""

import numpy as np
import pytest

from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.tiling import tile_by_chunk

from tests.conftest import make_cloud_runtime
from tests.oracles import as_tiles, tiles_cover


def _region(pragma: str):
    def body(lo, hi, arrays, scalars):
        arrays["C"][lo:hi] = 2 * np.asarray(arrays["A"][lo:hi])

    return TargetRegion(
        name="sched",
        pragmas=["omp target device(CLOUD)", "omp map(to: A[:N]) map(from: C[:N])"],
        loops=[ParallelLoop(
            pragma=pragma, loop_var="i", trip_count="N",
            reads=("A",), writes=("C",),
            partition_pragma="omp target data map(to: A[i:i+1]) map(from: C[i:i+1])",
            body=body,
        )],
    )


def _run(rt, pragma, n=64):
    a = np.arange(n, dtype=np.float32)
    c = np.zeros(n, dtype=np.float32)
    report = offload(_region(pragma), arrays={"A": a, "C": c},
                     scalars={"N": n}, runtime=rt)
    assert np.array_equal(c, 2 * a)
    return report


# --------------------------------------------------------------- tile helper
def test_tile_by_chunk_widths():
    tiles = as_tiles(tile_by_chunk(10, 4))
    assert [(t.lo, t.hi) for t in tiles] == [(0, 4), (4, 8), (8, 10)]
    assert tiles_cover(tiles, 10)


def test_tile_by_chunk_covers_any_shape():
    for n in (1, 7, 100):
        for chunk in (1, 3, 7, 200):
            assert tiles_cover(as_tiles(tile_by_chunk(n, chunk)), n)


def test_tile_by_chunk_validation():
    with pytest.raises(ValueError):
        tile_by_chunk(-1, 2)
    with pytest.raises(ValueError):
        tile_by_chunk(4, 0)


# ------------------------------------------------------------ offload effect
def test_default_uses_algorithm1(cloud_config):
    rt = make_cloud_runtime(cloud_config, physical_cores=16)
    report = _run(rt, "omp parallel for")
    assert report.tasks_run == 16  # one task per core


def test_static_chunk_overrides_tile_width(cloud_config):
    rt = make_cloud_runtime(cloud_config, physical_cores=16)
    report = _run(rt, "omp parallel for schedule(static, 4)")
    assert report.tasks_run == 16  # 64 iterations / chunk 4


def test_dynamic_chunk(cloud_config):
    rt = make_cloud_runtime(cloud_config, physical_cores=16)
    report = _run(rt, "omp parallel for schedule(dynamic, 2)")
    assert report.tasks_run == 32


def test_dynamic_without_chunk_makes_four_waves(cloud_config):
    rt = make_cloud_runtime(cloud_config, physical_cores=8)
    report = _run(rt, "omp parallel for schedule(dynamic)")
    assert report.tasks_run == 32  # 4 waves on 8 slots


def test_results_identical_across_schedules(cloud_config):
    n = 50
    outputs = []
    for pragma in ("omp parallel for",
                   "omp parallel for schedule(static, 7)",
                   "omp parallel for schedule(dynamic, 3)"):
        rt = make_cloud_runtime(cloud_config, physical_cores=16)
        a = np.arange(n, dtype=np.float32)
        c = np.zeros(n, dtype=np.float32)
        offload(_region(pragma), arrays={"A": a, "C": c},
                scalars={"N": n}, runtime=rt)
        outputs.append(c)
    assert all(np.array_equal(outputs[0], o) for o in outputs[1:])
