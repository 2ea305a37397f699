"""TargetRegion construction, validation, and the offload entry point."""

import numpy as np
import pytest

from repro.core.api import ParallelLoop, RegionError, TargetRegion, offload
from repro.core.buffers import ExecutionMode
from repro.core.omp_ast import MapType
from repro.core.runtime import OffloadRuntime


def _loop(**kwargs):
    defaults = dict(
        pragma="omp parallel for",
        loop_var="i",
        trip_count="N",
        reads=("A",),
        writes=("C",),
    )
    defaults.update(kwargs)
    return ParallelLoop(**defaults)


def _region(loops=None, pragmas=None, **kwargs):
    return TargetRegion(
        name="r",
        pragmas=pragmas
        or ["omp target device(CLOUD)", "omp map(to: A[:N*N]) map(from: C[:N*N])"],
        loops=loops or [_loop()],
        **kwargs,
    )


def test_region_picks_up_device_and_maps():
    r = _region()
    assert r.device == "CLOUD"
    assert r.input_names == ["A"]
    assert r.output_names == ["C"]


def test_map_type_merging_tofrom():
    r = TargetRegion(
        name="r",
        pragmas=["omp target map(to: C[:N]) map(from: C[:N])"],
        loops=[_loop(reads=("C",), writes=("C",))],
    )
    assert r.map_type_of("C") == MapType.TOFROM


def test_sync_constructs_rejected():
    with pytest.raises(RegionError, match="synchronization"):
        _region(pragmas=["omp target device(CLOUD)", "omp critical",
                         "omp map(to: A[:N*N]) map(from: C[:N*N])"])


def test_loop_touching_unmapped_variable_rejected():
    with pytest.raises(RegionError, match="neither mapped"):
        _region(loops=[_loop(reads=("A", "Z"))])


def test_partition_of_undeclared_variable_rejected():
    with pytest.raises(RegionError):
        _region(loops=[_loop(partition_pragma="omp target data map(to: Q[i:i+1])")])


def test_reduction_of_undeclared_variable_rejected():
    with pytest.raises(RegionError):
        _region(loops=[_loop(pragma="omp parallel for reduction(+: zz)")])


def test_locals_are_declared():
    r = _region(
        loops=[_loop(writes=("tmp",)), _loop(reads=("tmp",), writes=("C",))],
        locals_={"tmp": "N*N"},
    )
    assert r.declared_length("tmp", {"N": 4}) == 16


def test_declared_length_from_map_section():
    r = _region()
    assert r.declared_length("A", {"N": 5}) == 25
    with pytest.raises(RegionError):
        r.declared_length("missing", {"N": 5})


def test_region_needs_loops():
    with pytest.raises(RegionError):
        TargetRegion(name="r", pragmas=["omp target"], loops=[])


def test_memory_intensity_validated():
    with pytest.raises(RegionError):
        _region(memory_intensity=2.0)


def test_loop_pragma_must_be_parallel_for():
    with pytest.raises(RegionError):
        _loop(pragma="omp target device(CLOUD)")


def test_partition_pragma_must_be_target_data():
    with pytest.raises(RegionError):
        _loop(partition_pragma="omp parallel for")


def test_double_partition_rejected():
    with pytest.raises(RegionError, match="twice"):
        _loop(
            partition_pragma=(
                "omp target data map(to: A[i:i+1]) map(from: A[i:i+1])"
            )
        )


def test_trip_count_expression_and_int():
    assert _loop(trip_count="N*2").trip_count_value({"N": 5}) == 10
    assert _loop(trip_count=7).trip_count_value({}) == 7
    with pytest.raises(RegionError):
        _loop(trip_count="N-10").trip_count_value({"N": 5})


def _one_tile(loop, lo, hi, env):
    return float(loop.tile_flops(np.array([lo]), np.array([hi]), env)[0])


def test_flops_accounting_constant_and_callable():
    loop = _loop(flops_per_iter=10.0)
    assert _one_tile(loop, 0, 5, {}) == 50.0
    loop2 = _loop(flops_per_iter=lambda i, env: i)
    assert _one_tile(loop2, 0, 4, {}) == 0 + 1 + 2 + 3
    assert _one_tile(_loop(), 0, 5, {}) == 0.0


def test_flops_callable_is_called_once_with_all_iterations():
    calls = []

    def fpi(i, env):
        calls.append(i)
        return 2.0 * i

    loop = _loop(flops_per_iter=fpi)
    out = loop.tile_flops(np.array([3, 0, 7]), np.array([7, 3, 7]), {})
    assert out.dtype == np.float64
    assert out.tolist() == [2.0 * (3 + 4 + 5 + 6), 2.0 * (0 + 1 + 2), 0.0]
    assert len(calls) == 1
    assert calls[0].dtype == np.int64 and calls[0].tolist() == list(range(7))
    assert loop.tile_flops(np.zeros(0, np.int64), np.zeros(0, np.int64), {}).shape == (0,)


def test_flops_callable_must_be_elementwise():
    loop = _loop(loop_var="row", flops_per_iter=lambda i, env: np.ones(2))
    with pytest.raises(RegionError, match="'row'"):
        loop.tile_flops(np.array([0]), np.array([5]), {})


def test_reduction_vars_mapping():
    loop = _loop(pragma="omp parallel for reduction(+: C)")
    assert loop.reduction_vars == {"C": "+"}


# ------------------------------------------------------------------- offload
def test_offload_functional_requires_all_arrays():
    region = _region()
    with pytest.raises(RegionError, match="misses array"):
        offload(region, arrays={"A": np.zeros(4, dtype=np.float32)},
                scalars={"N": 2}, runtime=OffloadRuntime())


def test_offload_modeled_derives_lengths_from_maps():
    region = _region(pragmas=["omp target", "omp map(to: A[:N*N]) map(from: C[:N*N])"])
    region.loops[0].flops_per_iter = 1.0
    report = offload(region, scalars={"N": 4}, runtime=OffloadRuntime(),
                     mode=ExecutionMode.MODELED)
    assert report.device_name == "HOST"


def test_offload_runs_on_host_without_device_clause():
    def body(lo, hi, arrays, scalars):
        arrays["C"][lo:hi] = 2 * np.asarray(arrays["A"][lo:hi])

    region = TargetRegion(
        name="double",
        pragmas=["omp target map(to: A[:N]) map(from: C[:N])"],
        loops=[_loop(trip_count="N", body=body,
                     partition_pragma="omp target data map(to: A[i:i+1]) map(from: C[i:i+1])")],
    )
    a = np.arange(6, dtype=np.float32)
    c = np.zeros(6, dtype=np.float32)
    offload(region, arrays={"A": a, "C": c}, scalars={"N": 6}, runtime=OffloadRuntime())
    assert np.array_equal(c, 2 * a)
