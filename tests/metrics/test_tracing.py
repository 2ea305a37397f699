"""Chrome-trace export."""

import json

import pytest

from repro.metrics.tracing import to_chrome_trace, write_chrome_trace
from repro.simtime import Phase, Timeline


def _tl():
    tl = Timeline()
    tl.record(Phase.HOST_UPLOAD, 0.0, 1.5, resource="host", label="upload-A")
    tl.record(Phase.COMPUTE, 2.0, 5.0, resource="worker-0")
    return tl


def test_structure():
    trace = to_chrome_trace(_tl())
    assert "traceEvents" in trace
    kinds = {e["ph"] for e in trace["traceEvents"]}
    # M (metadata) + X (spans) always; C (counters) from the COMPUTE span.
    assert kinds == {"M", "X", "C"}


def test_spans_become_complete_events():
    events = [e for e in to_chrome_trace(_tl())["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 2
    upload = next(e for e in events if e["name"] == "upload-A")
    assert upload["ts"] == pytest.approx(0.0)
    assert upload["dur"] == pytest.approx(1.5e6)  # seconds -> microseconds
    assert upload["cat"] == "host-target communication"


def test_resources_become_named_tracks():
    meta = [e for e in to_chrome_trace(_tl())["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"]
    names = {e["args"]["name"] for e in meta}
    assert names == {"host", "worker-0"}
    tids = {e["tid"] for e in meta}
    assert len(tids) == 2


def test_unlabeled_span_uses_phase_name():
    events = [e for e in to_chrome_trace(_tl())["traceEvents"] if e["ph"] == "X"]
    compute = next(e for e in events if e["tid"] != 0 or e["name"] == "compute")
    assert compute["args"]["phase"] == "compute"


def test_write_roundtrip(tmp_path):
    path = write_chrome_trace(_tl(), str(tmp_path / "t.json"))
    loaded = json.loads(open(path).read())
    assert loaded["displayTimeUnit"] == "ms"
    assert len(loaded["traceEvents"]) >= 4


def test_real_offload_trace(tmp_path):
    from repro.metrics.figures import run_point

    pt = run_point("matmul", cores=16, density=1.0, size=2048)
    trace = to_chrome_trace(pt.report.timeline)
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(events) > 20
    cats = {e["cat"] for e in events}
    assert "computation" in cats and "spark overhead" in cats


def test_cli_trace_flag(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "run.trace.json"
    assert main(["run", "matmul", "--cores", "16", "--workers", "2",
                 "--trace", str(path)]) == 0
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["traceEvents"]


# ------------------------------------------------- counters, flows, schema
def test_counter_track_follows_compute_overlap():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 4.0, resource="w0")
    tl.record(Phase.COMPUTE, 1.0, 3.0, resource="w1")
    counters = [e for e in to_chrome_trace(tl)["traceEvents"]
                if e["ph"] == "C" and e["name"] == "active workers"]
    profile = [(e["ts"], e["args"]["workers"]) for e in counters]
    # 1 worker at t=0, 2 at t=1, back to 1 at t=3, 0 at t=4.
    assert profile == [(0.0, 1), (1.0e6, 2), (3.0e6, 1), (4.0e6, 0)]


def test_in_flight_bytes_counter_from_events():
    from repro.obs.events import MapUpload

    events = [MapUpload(buffer="A", bytes_wire=100, start=0.0, end=2.0),
              MapUpload(buffer="B", bytes_wire=50, start=1.0, end=3.0)]
    counters = [e for e in to_chrome_trace(Timeline(), events=events)["traceEvents"]
                if e["ph"] == "C" and e["name"] == "in-flight bytes"]
    values = [e["args"]["bytes"] for e in counters]
    assert values == [100, 150, 50, 0]


def test_flow_links_retry_to_resubmit():
    tl = Timeline()
    tl.record(Phase.RETRY_BACKOFF, 1.0, 2.0, resource="host")
    tl.record(Phase.RESUBMIT, 2.5, 3.0, resource="host")
    flows = [e for e in to_chrome_trace(tl)["traceEvents"]
             if e["ph"] in ("s", "f")]
    assert len(flows) == 2
    start = next(e for e in flows if e["ph"] == "s")
    end = next(e for e in flows if e["ph"] == "f")
    assert start["id"] == end["id"]
    assert start["ts"] == pytest.approx(2.0e6)   # retry span end
    assert end["ts"] == pytest.approx(2.5e6)     # resubmit span start
    assert end["bp"] == "e"
    assert start["name"] == end["name"] == "retry->resubmit"


def test_retry_without_resubmit_emits_no_flow():
    tl = Timeline()
    tl.record(Phase.RETRY_BACKOFF, 1.0, 2.0, resource="host")
    flows = [e for e in to_chrome_trace(tl)["traceEvents"]
             if e["ph"] in ("s", "f")]
    assert flows == []


def test_spans_are_sorted_by_start():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 5.0, 6.0, resource="late")
    tl.record(Phase.HOST_UPLOAD, 0.0, 1.0, resource="host")
    xs = [e for e in to_chrome_trace(tl)["traceEvents"] if e["ph"] == "X"]
    assert [e["ts"] for e in xs] == sorted(e["ts"] for e in xs)


def test_validate_trace_round_trip(tmp_path):
    """The schema checker accepts everything this exporter writes — for a
    synthetic resilience timeline and for a real offload's trace."""
    from repro.metrics.tracing import validate_trace

    tl = Timeline()
    tl.record(Phase.HOST_UPLOAD, 0.0, 1.0, resource="host")
    tl.record(Phase.RETRY_BACKOFF, 1.0, 2.0, resource="host")
    tl.record(Phase.RESUBMIT, 2.5, 3.0, resource="host")
    tl.record(Phase.COMPUTE, 3.0, 5.0, resource="w0")
    path = write_chrome_trace(tl, str(tmp_path / "t.json"))
    validate_trace(json.loads(open(path).read()))


def test_validate_trace_rejects_malformed():
    from repro.metrics.tracing import validate_trace

    good = to_chrome_trace(_tl())
    with pytest.raises(ValueError, match="top-level"):
        validate_trace({"traceEvents": []})
    bad = json.loads(json.dumps(good))
    bad["traceEvents"][0]["ph"] = "Z"
    with pytest.raises(ValueError, match="unknown phase"):
        validate_trace(bad)
    bad = json.loads(json.dumps(good))
    xe = next(e for e in bad["traceEvents"] if e["ph"] == "X")
    xe["dur"] = -1.0
    with pytest.raises(ValueError, match="dur"):
        validate_trace(bad)
    # An unpaired flow id is also rejected.
    bad = json.loads(json.dumps(good))
    bad["traceEvents"].append({"name": "f", "ph": "s", "pid": 1, "tid": 0,
                               "id": 99, "ts": 0.0})
    with pytest.raises(ValueError, match="unpaired"):
        validate_trace(bad)


# ----------------------------------------------------- critical-path track
def _critical_spans():
    from repro.simtime.timeline import Span
    return [
        Span(Phase.HOST_UPLOAD, 0.0, 1.5, resource="host", label="upload-A"),
        Span(Phase.COMPUTE, 2.0, 5.0, resource="worker-0"),
    ]


def test_critical_track_gets_its_own_named_thread():
    trace = to_chrome_trace(_tl(), critical=_critical_spans())
    names = [e for e in trace["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"]
    assert any(e["args"]["name"] == "critical path" for e in names)
    # The highlight lane sits on a tid no resource track uses.
    crit_tid = next(e["tid"] for e in names
                    if e["args"]["name"] == "critical path")
    resource_tids = {e["tid"] for e in names
                     if e["args"]["name"] != "critical path"}
    assert crit_tid not in resource_tids


def test_critical_track_reemits_chain_spans():
    trace = to_chrome_trace(_tl(), critical=_critical_spans())
    crit = [e for e in trace["traceEvents"] if e.get("cat") == "critical-path"]
    assert len(crit) == 2
    assert crit[0]["args"] == {"phase": "host_upload", "resource": "host"}
    assert crit[0]["dur"] == pytest.approx(1.5e6)
    assert {e["ph"] for e in crit} == {"X"}


def test_trace_without_critical_is_unchanged():
    assert to_chrome_trace(_tl()) == to_chrome_trace(_tl(), critical=None)
    base = to_chrome_trace(_tl())
    assert not any(e.get("cat") == "critical-path"
                   for e in base["traceEvents"])


def test_critical_trace_still_validates(tmp_path):
    from repro.metrics.tracing import validate_trace

    path = tmp_path / "crit.trace.json"
    write_chrome_trace(_tl(), str(path), critical=_critical_spans())
    validate_trace(json.loads(path.read_text()))


def test_profiler_chain_exports_cleanly(tmp_path):
    from repro.core.api import offload
    from repro.core.buffers import ExecutionMode
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime
    from repro.metrics.figures import demo_config
    from repro.metrics.tracing import validate_trace
    from repro.obs.profile import profile_report
    from repro.workloads.specs import WORKLOADS

    spec = WORKLOADS["gemm"]
    rt = OffloadRuntime()
    rt.register(CloudDevice(demo_config(4), physical_cores=32))
    report = offload(spec.build_region("CLOUD"),
                     scalars=spec.scalars(spec.test_size),
                     runtime=rt, mode=ExecutionMode.MODELED)
    prof = profile_report(report)
    path = tmp_path / "prof.trace.json"
    write_chrome_trace(report.timeline, str(path),
                       critical=prof.critical_spans)
    trace = json.loads(path.read_text())
    validate_trace(trace)
    crit = [e for e in trace["traceEvents"] if e.get("cat") == "critical-path"]
    assert len(crit) == len(prof.critical_indices)


def test_speculation_flows_reach_stage_labelled_copies():
    """A real offload labels copy spans ``<loop>/task-<id>-spec``; every
    speculation win still gets its launch->copy arrow."""
    import dataclasses

    from repro.core.api import ParallelLoop, TargetRegion, offload
    from repro.core.buffers import ExecutionMode
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime
    from repro.metrics.figures import demo_config
    from repro.metrics.tracing import validate_trace
    from repro.perfmodel.calibration import DEFAULT_CALIBRATION
    from repro.spark.schedule import ScheduleConfig

    region = TargetRegion(
        name="spec",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N*R]) map(from: C[:N*R])"],
        loops=[ParallelLoop(
            pragma="omp parallel for schedule(static)",
            loop_var="i", trip_count="N",
            reads=("A",), writes=("C",),
            partition_pragma="omp target data map(to: A[i*R:(i+1)*R]) "
                             "map(from: C[i*R:(i+1)*R])",
            flops_per_iter=1.0e9,
            body=None,
        )],
    )
    cal = dataclasses.replace(DEFAULT_CALIBRATION, straggler_sigma=0.3)
    rt = OffloadRuntime()
    rt.register(CloudDevice(demo_config(3), physical_cores=48,
                            calibration=cal,
                            schedule=ScheduleConfig(speculation=True),
                            worker_speeds=(1.0, 1.0, 0.25)))
    report = offload(region, scalars={"N": 60, "R": 3}, runtime=rt,
                     mode=ExecutionMode.MODELED)
    assert report.speculation_wins > 0
    trace = to_chrome_trace(report.timeline)
    validate_trace(trace)
    flows = [e for e in trace["traceEvents"]
             if e.get("name") == "speculate->copy"]
    assert len([e for e in flows if e["ph"] == "s"]) == report.speculation_wins
    assert len([e for e in flows if e["ph"] == "f"]) == report.speculation_wins
