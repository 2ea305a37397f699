"""Spark-job generation: Eq. 4-10 mechanics observed through the substrate."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.buffers import ExecutionMode
from repro.core.codegen import CodegenError
from repro.simtime import Phase
from repro.spark.faults import FaultPlan

from tests.conftest import make_cloud_runtime


def test_task_count_equals_core_count_with_tiling(cloud_config):
    rt = make_cloud_runtime(cloud_config, physical_cores=16)
    region = _sum_rows_region()
    n = 160
    arrays = _arrays(n)
    report = offload(region, arrays=arrays, scalars={"N": n}, runtime=rt)
    assert report.tasks_run == 16  # Algorithm 1: one task per core


def test_untiled_runs_one_task_per_iteration(cloud_config):
    rt = make_cloud_runtime(cloud_config, physical_cores=16, tiling=False)
    n = 48
    arrays = _arrays(n)
    report = offload(_sum_rows_region(), arrays=arrays, scalars={"N": n}, runtime=rt)
    assert report.tasks_run == n


def test_untiled_pays_more_jni_overhead(cloud_config):
    n = 64
    rt_tiled = make_cloud_runtime(cloud_config, physical_cores=8)
    rt_flat = make_cloud_runtime(cloud_config, physical_cores=8, tiling=False)
    r_tiled = offload(_sum_rows_region(), arrays=_arrays(n), scalars={"N": n},
                      runtime=rt_tiled)
    r_flat = offload(_sum_rows_region(), arrays=_arrays(n), scalars={"N": n},
                     runtime=rt_flat)
    jni_tiled = r_tiled.timeline.busy(Phase.JNI_CALL)
    jni_flat = r_flat.timeline.busy(Phase.JNI_CALL)
    assert jni_flat > jni_tiled * 4


def test_broadcast_used_for_unpartitioned_inputs(cloud_config):
    rt = make_cloud_runtime(cloud_config, physical_cores=8)
    report = offload(_sum_rows_region(), arrays=_arrays(32), scalars={"N": 32},
                     runtime=rt)
    # B is unpartitioned -> broadcast spans exist.
    assert any(s.phase == Phase.BROADCAST for s in report.timeline.spans)


def test_unpartitioned_tofrom_output_rejected(cloud_config):
    def body(lo, hi, arrays, scalars):
        arrays["C"][:] = 1.0

    region = TargetRegion(
        name="bad",
        pragmas=["omp target device(CLOUD)", "omp map(tofrom: C[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("C",), writes=("C",), body=body,
        )],
    )
    rt = make_cloud_runtime(replace(make_config(), min_compress_size=1 << 30))
    c = np.zeros(8, dtype=np.float32)
    with pytest.raises(CodegenError, match="bitor"):
        offload(region, arrays={"C": c}, scalars={"N": 8}, runtime=rt)


def test_unpartitioned_from_output_uses_bitor_reconstruction(cloud_config):
    """Workers each produce a full zero-initialized C and write disjoint
    slices; the driver ORs them together (Eq. 8)."""

    def body(lo, hi, arrays, scalars):
        c = arrays["C"]  # full-size zero array on each worker
        for i in range(lo, hi):
            c[i] = np.float32(i + 1)

    region = TargetRegion(
        name="bitor",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N]) map(from: C[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("A",), writes=("C",),
            partition_pragma="omp target data map(to: A[i:i+1])",
            body=body,
        )],
    )
    rt = make_cloud_runtime(make_config(), physical_cores=8)
    n = 24
    a = np.zeros(n, dtype=np.float32)
    c = np.zeros(n, dtype=np.float32)
    report = offload(region, arrays={"A": a, "C": c}, scalars={"N": n}, runtime=rt)
    assert np.array_equal(c, np.arange(1, n + 1, dtype=np.float32))
    assert report.tasks_run > 1  # the OR really merged multiple partials


def test_reduction_merges_with_original_value(cloud_config):
    def body(lo, hi, arrays, scalars):
        arrays["s"][0] += np.float64(hi - lo)

    region = TargetRegion(
        name="red",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N]) map(tofrom: s[0:1])"],
        loops=[ParallelLoop(
            pragma="omp parallel for reduction(+: s)",
            loop_var="i", trip_count="N",
            reads=("A",), writes=("s",),
            partition_pragma="omp target data map(to: A[i:i+1])",
            body=body,
        )],
    )
    rt = make_cloud_runtime(make_config(), physical_cores=8)
    n = 40
    a = np.zeros(n, dtype=np.float32)
    s = np.array([100.0], dtype=np.float64)
    offload(region, arrays={"A": a, "s": s}, scalars={"N": n}, runtime=rt)
    assert s[0] == pytest.approx(100.0 + n)


def test_max_reduction(cloud_config):
    def body(lo, hi, arrays, scalars):
        window = np.asarray(arrays["A"][lo:hi])
        arrays["m"][0] = max(arrays["m"][0], float(window.max()))

    region = TargetRegion(
        name="maxred",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N]) map(from: m[0:1])"],
        loops=[ParallelLoop(
            pragma="omp parallel for reduction(max: m)",
            loop_var="i", trip_count="N",
            reads=("A",), writes=("m",),
            partition_pragma="omp target data map(to: A[i:i+1])",
            body=body,
        )],
    )
    rt = make_cloud_runtime(make_config(), physical_cores=8)
    rng = np.random.default_rng(5)
    a = rng.uniform(-100, 100, size=64).astype(np.float32)
    m = np.array([float("-inf")], dtype=np.float64)
    offload(region, arrays={"A": a, "m": m}, scalars={"N": 64}, runtime=rt)
    assert m[0] == pytest.approx(float(a.max()))


def test_multi_loop_region_chains_through_local(cloud_config):
    """tmp = 2*A; C = tmp + 1 — two successive map-reduce rounds."""

    def first(lo, hi, arrays, scalars):
        arrays["tmp"][lo:hi] = 2 * np.asarray(arrays["A"][lo:hi])

    def second(lo, hi, arrays, scalars):
        arrays["C"][lo:hi] = np.asarray(arrays["tmp"][lo:hi]) + 1

    region = TargetRegion(
        name="chain",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N]) map(from: C[:N])"],
        loops=[
            ParallelLoop(
                pragma="omp parallel for", loop_var="i", trip_count="N",
                reads=("A",), writes=("tmp",),
                partition_pragma="omp target data map(to: A[i:i+1]) map(from: tmp[i:i+1])",
                body=first,
            ),
            ParallelLoop(
                pragma="omp parallel for", loop_var="i", trip_count="N",
                reads=("tmp",), writes=("C",),
                partition_pragma="omp target data map(to: tmp[i:i+1]) map(from: C[i:i+1])",
                body=second,
            ),
        ],
        locals_={"tmp": "N"},
    )
    rt = make_cloud_runtime(make_config(), physical_cores=8)
    dev = rt.device("CLOUD")
    n = 32
    a = np.arange(n, dtype=np.float32)
    c = np.zeros(n, dtype=np.float32)
    offload(region, arrays={"A": a, "C": c}, scalars={"N": n}, runtime=rt)
    assert np.array_equal(c, 2 * a + 1)
    # The intermediate never hits cloud storage.
    assert not any("tmp" in k for k in dev.storage.list_keys())


def test_fault_injection_through_cloud_device(cloud_config):
    rt = make_cloud_runtime(
        make_config(n_workers=4), physical_cores=64,
        fault_plan=FaultPlan(fail_task_number={"worker-0": 1}),
    )
    n = 64
    arrays = _arrays(n)
    report = offload(_sum_rows_region(), arrays=arrays, scalars={"N": n}, runtime=rt)
    assert report.tasks_recomputed >= 1
    expected = arrays["A"] + arrays["B"].sum()
    assert np.allclose(arrays["C"], expected, rtol=1e-5)


# ----------------------------------------------------------------- helpers
@pytest.mark.parametrize("mode", [ExecutionMode.FUNCTIONAL, ExecutionMode.MODELED])
def test_partition_windows_evaluated_once_per_buffer_per_loop(cloud_config,
                                                              monkeypatch, mode):
    """A loop job evaluates each partitioned buffer's windows once — a
    tofrom buffer (read and written through one window) included — and
    shares them between the memory check, the task costs and the elements."""
    from repro.core import codegen

    calls = []
    real = codegen.partition_windows

    def counting(spec, lo, hi, env):
        calls.append(spec.name)
        return real(spec, lo, hi, env)

    monkeypatch.setattr(codegen, "partition_windows", counting)

    def body(lo, hi, arrays, scalars):
        d = np.asarray(arrays["D"][lo:hi])
        arrays["C"][lo:hi] = np.asarray(arrays["A"][lo:hi]) + d
        arrays["D"][lo:hi] = d * 2

    region = TargetRegion(
        name="windows",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N]) map(tofrom: D[:N]) map(from: C[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("A", "D"), writes=("C", "D"),
            partition_pragma="omp target data map(to: A[i:i+1]) "
                             "map(tofrom: D[i:i+1]) map(from: C[i:i+1])",
            body=body, flops_per_iter=1.0,
        )],
    )
    rt = make_cloud_runtime(cloud_config, physical_cores=16)
    n = 64
    if mode == ExecutionMode.FUNCTIONAL:
        arrays = _arrays(n)
        arrays["D"] = arrays.pop("B")
        a, d = arrays["A"].copy(), arrays["D"].copy()
        report = offload(region, arrays=arrays, scalars={"N": n}, runtime=rt)
        np.testing.assert_array_equal(arrays["C"], a + d)
        np.testing.assert_array_equal(arrays["D"], d * 2)
    else:
        report = offload(region, scalars={"N": n}, runtime=rt, mode=mode)
    assert report.tasks_run == 16
    assert sorted(calls) == ["A", "C", "D"]


def make_config(n_workers: int = 4):
    from repro.cloud.credentials import Credentials
    from repro.core.config import CloudConfig

    return CloudConfig(
        credentials=Credentials(
            provider="ec2", username="ubuntu",
            access_key_id="AKIA" + "E" * 12, secret_key="sk",
        ),
        n_workers=n_workers,
        min_compress_size=256,
    )


def _sum_rows_region():
    """C[i] = A[i] + sum(B): A/C partitioned, B broadcast."""

    def body(lo, hi, arrays, scalars):
        b_total = np.asarray(arrays["B"]).sum()
        arrays["C"][lo:hi] = np.asarray(arrays["A"][lo:hi]) + b_total

    return TargetRegion(
        name="sumrows",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N], B[:N]) map(from: C[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("A", "B"), writes=("C",),
            partition_pragma="omp target data map(to: A[i:i+1]) map(from: C[i:i+1])",
            body=body, flops_per_iter=2.0,
        )],
    )


def _arrays(n):
    rng = np.random.default_rng(0)
    return {
        "A": rng.uniform(-1, 1, n).astype(np.float32),
        "B": rng.uniform(-1, 1, n).astype(np.float32),
        "C": np.zeros(n, dtype=np.float32),
    }
