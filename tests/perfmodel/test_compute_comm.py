"""Compute and host-communication models."""

import numpy as np
import pytest

from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perfmodel.comm import HostCommModel, TransferPlan
from repro.perfmodel.compression import DENSE_MODEL, SPARSE_MODEL
from repro.perfmodel.compute import ComputeModel


@pytest.fixture
def cm():
    return ComputeModel(DEFAULT_CALIBRATION)


# ------------------------------------------------------------------- compute
def test_sequential_time_linear_in_flops(cm):
    assert cm.sequential_time(2e9) == pytest.approx(2 * cm.sequential_time(1e9))
    with pytest.raises(ValueError):
        cm.sequential_time(-1)


def test_contention_grows_with_co_runners(cm):
    solo = cm.contention_factor(1, 16, 1.0)
    full = cm.contention_factor(16, 16, 1.0)
    assert solo == 1.0
    assert full == pytest.approx(1.0 + DEFAULT_CALIBRATION.contention_ceiling)


def test_contention_scaled_by_intensity(cm):
    light = cm.contention_factor(16, 16, 0.05)
    heavy = cm.contention_factor(16, 16, 1.0)
    assert light < heavy
    assert cm.contention_factor(16, 16, 0.0) == 1.0


def test_contention_validation(cm):
    with pytest.raises(ValueError):
        cm.contention_factor(0, 16, 1.0)
    with pytest.raises(ValueError):
        cm.contention_factor(4, 16, 1.5)


def _timing(cm, flops, tasks_on_node, slots, intensity, task_index=0,
            jni_calls=1):
    compute, jni = cm.task_timing_vec(
        np.array([flops]), tasks_on_node, slots, intensity,
        np.array([task_index]), jni_calls=jni_calls)
    return float(compute[0]), float(jni[0])


def test_task_timing_includes_jni(cm):
    compute_s, jni_s = _timing(cm, 1e9, tasks_on_node=1, slots=16,
                               intensity=0.0, jni_calls=1)
    base = cm.sequential_time(1e9)
    assert compute_s > base  # JNI efficiency loss applied
    assert jni_s == pytest.approx(DEFAULT_CALIBRATION.jni_call_s)


def test_straggler_noise_is_deterministic(cm):
    a = _timing(cm, 1e9, 16, 16, 1.0, task_index=7)
    b = _timing(cm, 1e9, 16, 16, 1.0, task_index=7)
    c = _timing(cm, 1e9, 16, 16, 1.0, task_index=8)
    assert a[0] == b[0]
    assert a[0] != c[0]


def test_straggler_noise_is_small():
    cm = ComputeModel(DEFAULT_CALIBRATION)
    base, _ = _timing(cm, 1e9, 1, 16, 0.0, task_index=0)
    for idx in range(100):
        t, _ = _timing(cm, 1e9, 1, 16, 0.0, task_index=idx)
        assert abs(t / base - 1.0) < 0.12


def test_no_noise_when_sigma_zero():
    cal = Calibration(straggler_sigma=0.0)
    cm = ComputeModel(cal)
    assert cm.straggler_noise(np.array([3])).tolist() == [1.0]


def test_omp_thread_speedup_bends_with_contention(cm):
    s8 = cm.omp_thread_speedup(8, 1.0)
    s16 = cm.omp_thread_speedup(16, 1.0)
    assert 5.0 < s8 < 8.0
    assert 8.5 < s16 < 12.0  # the paper's OmpThread-16 is far below 16x
    assert s16 > s8


def test_compute_bound_threads_scale_nearly_linearly(cm):
    s16 = cm.omp_thread_speedup(16, 0.05)
    assert s16 > 14.0


def test_omp_thread_validation(cm):
    with pytest.raises(ValueError):
        cm.omp_thread_time(1e9, 0, 1.0)


# --------------------------------------------------------------------- comm
def _plans(nbytes=100 * 2**20, model=DENSE_MODEL, k=2):
    return [TransferPlan(f"b{i}", nbytes, model) for i in range(k)]


def test_upload_compresses_then_transfers():
    comm = HostCommModel(DEFAULT_CALIBRATION)
    cost = comm.upload(_plans())
    assert cost.compress_s > 0
    assert cost.transfer_s > 0
    assert cost.decompress_s == 0.0
    assert cost.wire_bytes < cost.raw_bytes


def test_download_mirrors_upload():
    comm = HostCommModel(DEFAULT_CALIBRATION)
    cost = comm.download(_plans())
    assert cost.decompress_s > 0
    assert cost.compress_s == 0.0


def test_sparse_data_cheaper_than_dense():
    comm = HostCommModel(DEFAULT_CALIBRATION)
    dense = comm.upload(_plans(model=DENSE_MODEL))
    sparse = comm.upload(_plans(model=SPARSE_MODEL))
    assert sparse.total_s < dense.total_s / 2
    assert sparse.wire_bytes < dense.wire_bytes


def test_compression_disabled_sends_raw():
    comm = HostCommModel(DEFAULT_CALIBRATION, compress=False)
    cost = comm.upload(_plans())
    assert cost.wire_bytes == cost.raw_bytes
    assert cost.compress_s == 0.0


def test_parallel_streams_beat_serial():
    fast = HostCommModel(DEFAULT_CALIBRATION, parallel_streams=True)
    slow = HostCommModel(DEFAULT_CALIBRATION, parallel_streams=False)
    assert fast.upload(_plans(k=4)).transfer_s < slow.upload(_plans(k=4)).transfer_s


def test_compression_phase_is_parallel_across_buffers():
    comm = HostCommModel(DEFAULT_CALIBRATION)
    one = comm.upload(_plans(k=1)).compress_s
    four = comm.upload(_plans(k=4)).compress_s
    assert four == pytest.approx(one)  # one thread per buffer


def test_small_buffers_skip_the_codec():
    comm = HostCommModel(DEFAULT_CALIBRATION)
    tiny = [TransferPlan("t", 1024, DENSE_MODEL)]
    cost = comm.upload(tiny)
    assert cost.wire_bytes == 1024
    assert cost.compress_s == 0.0


def test_empty_upload_is_free():
    comm = HostCommModel(DEFAULT_CALIBRATION)
    cost = comm.upload([])
    assert cost.total_s == 0.0


def test_negative_plan_rejected():
    with pytest.raises(ValueError):
        TransferPlan("x", -1, DENSE_MODEL)


def test_compression_ratio_property():
    comm = HostCommModel(DEFAULT_CALIBRATION)
    cost = comm.upload(_plans())
    assert cost.compression_ratio == pytest.approx(DENSE_MODEL.ratio, rel=0.01)
