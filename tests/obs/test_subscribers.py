"""Bus subscribers: metrics folding, derived reports, log sinks."""

import numpy as np
import pytest

from repro.core.api import offload
from repro.core.buffers import ExecutionMode
from repro.obs.events import (
    CacheHit,
    EventBus,
    Fallback,
    JobEnd,
    LogEvent,
    MapDownload,
    MapUpload,
    Preemption,
    Retry,
    SSHConnect,
    StorageOp,
    TargetBegin,
    TargetEnd,
    TaskBatch,
    use_bus,
)
from repro.obs.subscribers import MetricsSubscriber, ReportBuilder, SparkLogSink
from repro.simtime import Phase
from repro.spark.logging import SparkLog
from repro.workloads import WORKLOADS

from tests.conftest import make_cloud_runtime


def _offload_matmul(rt):
    spec = WORKLOADS["matmul"]
    return offload(spec.build_region("CLOUD"), scalars=spec.scalars(),
                   runtime=rt, mode=ExecutionMode.MODELED)


# ------------------------------------------------------------------- metrics
def test_metrics_from_synthetic_stream():
    bus = EventBus()
    sub = MetricsSubscriber()
    sub.attach(bus)
    bus.emit(TargetBegin(region="gemm", device="CLOUD"))
    bus.emit(MapUpload(buffer="A", bytes_raw=1000, bytes_wire=400))
    bus.emit(MapDownload(buffer="C", bytes_raw=500, bytes_wire=200))
    bus.emit(CacheHit(buffer="A", bytes_saved=1000))
    bus.emit(Retry(op="PUT", delay_s=0.5))
    bus.emit(Preemption(worker="worker-1"))
    bus.emit(TaskBatch(task_id=np.array([0]), worker_pos=np.array([0]),
                       worker_ids=("w0",), duration_s=np.array([0.25])))
    bus.emit(StorageOp(store="s3", op="PUT", key="k", nbytes=64))
    bus.emit(SSHConnect(ok=True))
    bus.emit(LogEvent(level="WARN", component="X", message="m"))
    bus.emit(JobEnd(job_id=1))
    bus.emit(TargetEnd(region="gemm", device="CLOUD", ok=True, full_s=2.0))

    r = sub.registry
    assert r.get("repro_offloads_total").value(device="CLOUD", region="gemm") == 1
    assert r.get("repro_bytes_up_wire_total").value(buffer="A") == 400
    assert r.get("repro_bytes_down_total").value(buffer="C") == 500
    assert r.get("repro_cache_hits_total").value(buffer="A") == 1
    assert r.get("repro_retries_total").value(op="PUT") == 1
    assert r.get("repro_retry_backoff_seconds_total").value(op="PUT") == 0.5
    assert r.get("repro_preemptions_total").value() == 1
    assert r.get("repro_tasks_total").value(worker="w0") == 1
    assert r.get("repro_active_tasks").value() == 0  # start +1, end -1
    assert r.get("repro_active_workers").value() == 1
    assert r.get("repro_storage_ops_total").value(op="PUT", store="s3") == 1
    assert r.get("repro_storage_bytes_total").value(op="PUT") == 64
    assert r.get("repro_ssh_connects_total").value(ok="true") == 1
    assert r.get("repro_log_records_total").value(level="WARN") == 1
    assert r.get("repro_spark_jobs_total").value() == 1
    assert r.get("repro_offload_seconds").count(device="CLOUD") == 1


def test_fallback_reason_label_is_truncated():
    bus = EventBus()
    sub = MetricsSubscriber()
    sub.attach(bus)
    bus.emit(Fallback(reason="storage down: " + "x" * 500))
    c = sub.registry.get("repro_fallbacks_total")
    assert c.value(reason="storage down") == 1


def test_unsuccessful_offload_does_not_observe_duration():
    bus = EventBus()
    sub = MetricsSubscriber()
    sub.attach(bus)
    bus.emit(TargetEnd(region="r", device="CLOUD", ok=False))
    assert sub.registry.get("repro_offload_seconds").count(device="CLOUD") == 0


# ------------------------------------------------------------ derived report
def test_derived_report_matches_plugin_report(cloud_config):
    """The instrumentation plane sees everything the OffloadReport records."""
    bus = EventBus(keep_history=True)
    builder = ReportBuilder()
    builder.attach(bus)
    with use_bus(bus):
        rt = make_cloud_runtime(cloud_config)
        report = _offload_matmul(rt)

    derived = builder.latest()
    assert derived.region == report.region_name
    assert derived.device == "CLOUD"
    assert derived.ok and not derived.fell_back_to_host
    assert derived.full_s == pytest.approx(report.full_s)
    assert derived.tasks_run == report.tasks_run
    assert derived.bytes_up_raw == report.bytes_up_raw
    assert derived.bytes_up_wire == report.bytes_up_wire
    assert derived.bytes_down_raw == report.bytes_down_raw
    assert derived.bytes_down_wire == report.bytes_down_wire
    assert derived.retries == report.retries
    assert derived.backoff_s == pytest.approx(report.backoff_s)

    # The derived timeline books each task's whole slot as one COMPUTE span;
    # the real timeline splits the slot into decompress/jni/compute/compress.
    # The per-worker totals must still agree.
    worker_phases = {Phase.WORKER_DECOMPRESS, Phase.JNI_CALL,
                     Phase.COMPUTE, Phase.WORKER_COMPRESS}
    real_slots = sum(s.duration for s in report.timeline.spans
                     if s.phase in worker_phases)
    derived_slots = sum(s.duration for s in derived.timeline.spans
                        if s.phase is Phase.COMPUTE)
    assert derived_slots == pytest.approx(real_slots)


def test_report_builder_tracks_multiple_offloads(cloud_config):
    bus = EventBus(keep_history=True)
    builder = ReportBuilder()
    builder.attach(bus)
    with use_bus(bus):
        rt = make_cloud_runtime(cloud_config)
        _offload_matmul(rt)
        _offload_matmul(rt)
    assert len(builder.correlations()) == 2
    first, second = builder.correlations()
    assert first != second
    assert builder.report_for(first).ok
    assert builder.latest() is builder.report_for(second)


def test_latest_raises_before_any_offload():
    with pytest.raises(LookupError):
        ReportBuilder().latest()


def test_uncorrelated_events_are_ignored():
    builder = ReportBuilder()
    builder(TaskBatch(task_id=np.array([1]), worker_pos=np.array([0]),
                      worker_ids=("w0",), end=np.array([1.0]),
                      duration_s=np.array([1.0])))  # no corr id
    assert builder.correlations() == []


def test_fallback_keeps_first_device_and_marks_degradation():
    bus = EventBus(keep_history=True)
    builder = ReportBuilder()
    builder.attach(bus)
    with bus.offload_scope("gemm"):
        bus.emit(TargetBegin(region="gemm", device="CLOUD", mode="modeled"))
        bus.emit(Fallback(region="gemm", device="CLOUD", reason="unreachable"))
        bus.emit(TargetBegin(region="gemm", device="HOST", mode="modeled"))
        bus.emit(TargetEnd(region="gemm", device="HOST", ok=True,
                           fell_back=True, full_s=1.0))
    rep = builder.latest()
    assert rep.device == "CLOUD"  # first target wins; rerun doesn't overwrite
    assert rep.fell_back_to_host
    assert any(s.phase is Phase.FALLBACK for s in rep.timeline.spans)


# ------------------------------------------------------------------ log sink
def test_sparklog_sink_rebuilds_log_from_stream():
    bus = EventBus()
    replica = SparkLog()
    SparkLogSink(replica).attach(bus)
    bus.emit(LogEvent(time=1.0, level="INFO", component="DAGScheduler",
                      message="Submitting job"))
    bus.emit(LogEvent(time=2.0, level="ERROR", component="Executor",
                      message="lost"))
    assert len(replica) == 2
    assert replica.records[1].level == "ERROR"


def test_sparklog_does_not_echo_its_own_records():
    """A log that both publishes to and subscribes from one bus must not
    duplicate its own records."""
    bus = EventBus()
    log = SparkLog()
    SparkLogSink(log).attach(bus)
    with use_bus(bus):
        log.info(0.5, "X", "only once")
    assert len(log) == 1
    # ...but records from other logs still arrive.
    other = SparkLog()
    with use_bus(bus):
        other.warn(1.0, "Y", "from elsewhere")
    assert len(log) == 2
    assert log.records[1].component == "Y"
