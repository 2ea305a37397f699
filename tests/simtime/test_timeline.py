"""Timeline roll-ups: busy vs wall, buckets, Figure-5 scaling."""

import pytest

from repro.simtime import Phase, Timeline
from repro.simtime.timeline import (
    BUCKET_COMPUTE,
    BUCKET_HOST_COMM,
    BUCKET_SPARK,
    Span,
)


def test_span_duration():
    s = Span(Phase.COMPUTE, 1.0, 3.5)
    assert s.duration == 2.5


def test_span_rejects_negative_interval():
    with pytest.raises(ValueError):
        Span(Phase.COMPUTE, 2.0, 1.0)


def test_busy_sums_durations():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 2.0)
    tl.record(Phase.COMPUTE, 1.0, 3.0)  # overlapping
    assert tl.busy(Phase.COMPUTE) == pytest.approx(4.0)


def test_wall_merges_overlaps():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 2.0)
    tl.record(Phase.COMPUTE, 1.0, 3.0)
    assert tl.wall(Phase.COMPUTE) == pytest.approx(3.0)


def test_wall_keeps_gaps_separate():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 1.0)
    tl.record(Phase.COMPUTE, 5.0, 6.0)
    assert tl.wall(Phase.COMPUTE) == pytest.approx(2.0)


def test_wall_all_phases():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 1.0)
    tl.record(Phase.SCHEDULING, 0.5, 2.0)
    assert tl.wall() == pytest.approx(2.0)


def test_span_of_empty_timeline_is_zero():
    assert Timeline().span() == 0.0


def test_span_is_makespan():
    tl = Timeline()
    tl.record(Phase.HOST_UPLOAD, 1.0, 2.0)
    tl.record(Phase.COMPUTE, 4.0, 9.0)
    assert tl.span() == pytest.approx(8.0)


def test_every_phase_has_a_bucket():
    for phase in Phase:
        assert phase.bucket in (BUCKET_HOST_COMM, BUCKET_SPARK, BUCKET_COMPUTE)


def test_host_phases_bucket():
    assert Phase.HOST_UPLOAD.bucket == BUCKET_HOST_COMM
    assert Phase.HOST_COMPRESS.bucket == BUCKET_HOST_COMM
    assert Phase.SCHEDULING.bucket == BUCKET_SPARK
    assert Phase.COMPUTE.bucket == BUCKET_COMPUTE


def test_figure5_breakdown_partitions_the_total():
    tl = Timeline()
    tl.record(Phase.HOST_UPLOAD, 0.0, 2.0)
    tl.record(Phase.SCHEDULING, 2.0, 3.0)
    tl.record(Phase.COMPUTE, 3.0, 7.0)
    stack = tl.figure5_breakdown()
    assert sum(stack.values()) == pytest.approx(tl.span())
    assert stack[BUCKET_COMPUTE] > stack[BUCKET_SPARK]


def test_figure5_breakdown_with_explicit_total():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 4.0)
    stack = tl.figure5_breakdown(total=8.0)
    assert stack[BUCKET_COMPUTE] == pytest.approx(8.0)


def test_figure5_breakdown_empty():
    stack = Timeline().figure5_breakdown()
    assert all(v == 0.0 for v in stack.values())


def test_filter_keeps_selected_phases():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 1.0)
    tl.record(Phase.JNI_CALL, 1.0, 2.0)
    tl.record(Phase.BROADCAST, 2.0, 3.0)
    filtered = tl.filter([Phase.COMPUTE, Phase.JNI_CALL])
    assert len(filtered) == 2
    assert filtered.span() == pytest.approx(2.0)


def test_extend_merges_timelines():
    a, b = Timeline(), Timeline()
    a.record(Phase.COMPUTE, 0.0, 1.0)
    b.record(Phase.COMPUTE, 1.0, 2.0)
    a.extend(b)
    assert len(a) == 2


def test_by_resource_accumulates():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 1.0, resource="w0")
    tl.record(Phase.COMPUTE, 0.0, 2.0, resource="w1")
    tl.record(Phase.JNI_CALL, 2.0, 3.0, resource="w0")
    by = tl.by_resource()
    assert by["w0"] == pytest.approx(2.0)
    assert by["w1"] == pytest.approx(2.0)


# ------------------------------------------------------------- coarse mode
from repro.simtime import coarse_timelines  # noqa: E402


def _fine_and_coarse():
    """The same spans recorded into a fine and a coarse timeline."""
    spans = [
        (Phase.COMPUTE, 0.0, 2.0, "w0"),
        (Phase.COMPUTE, 1.0, 4.0, "w0"),
        (Phase.COMPUTE, 5.0, 6.0, "w1"),
        (Phase.SCHEDULING, 0.0, 0.5, "driver"),
    ]
    fine, coarse = Timeline(coarse=False), Timeline(coarse=True)
    for phase, a, b, res in spans:
        fine.record(phase, a, b, resource=res)
        coarse.record(phase, a, b, resource=res)
    return fine, coarse


def test_coarse_record_returns_none():
    tl = Timeline(coarse=True)
    assert tl.record(Phase.COMPUTE, 0.0, 1.0, resource="w0") is None
    assert tl.record(Phase.COMPUTE, 1.0, 2.0, resource="w0") is None
    assert len(tl) == 1  # one (phase, resource) aggregate


def test_coarse_busy_span_by_resource_are_exact():
    fine, coarse = _fine_and_coarse()
    assert coarse.busy() == fine.busy()
    assert coarse.busy(Phase.COMPUTE) == fine.busy(Phase.COMPUTE)
    assert coarse.span() == fine.span()
    assert coarse.by_resource() == fine.by_resource()


def test_coarse_spans_materialize_merged_segments():
    _, coarse = _fine_and_coarse()
    seg = [s for s in coarse.spans
           if s.phase is Phase.COMPUTE and s.resource == "w0"]
    assert len(seg) == 1
    assert (seg[0].start, seg[0].end, seg[0].label) == (0.0, 4.0, "coarse:2")


def test_coarse_filter_keeps_aggregates():
    fine, coarse = _fine_and_coarse()
    kept = coarse.filter([Phase.COMPUTE])
    assert kept.busy() == fine.filter([Phase.COMPUTE]).busy()
    assert kept.busy(Phase.SCHEDULING) == 0.0


def test_coarse_rejects_negative_interval():
    tl = Timeline(coarse=True)
    with pytest.raises(ValueError):
        tl.record(Phase.COMPUTE, 2.0, 1.0)


def test_coarse_timelines_context_sets_the_default():
    assert not Timeline().coarse
    with coarse_timelines():
        assert Timeline().coarse
        assert not Timeline(coarse=False).coarse  # explicit wins
    assert not Timeline().coarse  # restored


def test_extend_coarse_into_coarse_merges_aggregates():
    fine, coarse = _fine_and_coarse()
    other = Timeline(coarse=True)
    other.record(Phase.COMPUTE, 6.0, 8.0, resource="w0")
    coarse.extend(other)
    assert coarse.busy(Phase.COMPUTE) == fine.busy(Phase.COMPUTE) + 2.0
    seg = [s for s in coarse.spans
           if s.phase is Phase.COMPUTE and s.resource == "w0"]
    assert seg[0].label == "coarse:3"


def test_extend_fine_into_coarse_counts_each_span():
    fine, _ = _fine_and_coarse()
    tl = Timeline(coarse=True)
    tl.extend(fine)
    assert tl.busy() == fine.busy()
    assert tl.span() == fine.span()


def test_mixed_chain_through_fine_accumulator_is_lossless():
    """coarse job -> long-lived fine accumulator -> coarse report must keep
    exact (count, envelope, busy) — the SparkContext.timeline chain."""
    _, job = _fine_and_coarse()
    accumulator = Timeline(coarse=False)
    accumulator.record(Phase.CLUSTER_INIT, 0.0, 1.0, resource="cluster")
    accumulator.extend(job)
    report = Timeline(coarse=True)
    report.extend(accumulator)
    assert report._agg[(Phase.COMPUTE, "w0")] == [2, 0.0, 4.0, 5.0]
    assert report._agg[(Phase.COMPUTE, "w1")] == [1, 5.0, 6.0, 1.0]
    assert report._agg[(Phase.SCHEDULING, "driver")] == [1, 0.0, 0.5, 0.5]
    assert report._agg[(Phase.CLUSTER_INIT, "cluster")] == [1, 0.0, 1.0, 1.0]


def test_fine_accumulator_absorbing_coarse_becomes_coarse():
    fine, job = _fine_and_coarse()
    acc = Timeline(coarse=False)
    acc.extend(job)  # the log is dropped: the aggregates stay exact
    assert acc.coarse
    assert acc.busy() == fine.busy()
    assert acc.span() == fine.span()
    assert acc.by_resource() == fine.by_resource()
    assert len(acc) == 3
    labels = sorted(s.label for s in acc.spans)
    assert labels == ["coarse:1", "coarse:1", "coarse:2"]
    kept = acc.filter([Phase.SCHEDULING])
    assert kept.busy() == 0.5


def test_fine_timeline_keeps_log_and_aggregates():
    fine, coarse = _fine_and_coarse()
    assert fine._agg == coarse._agg
    assert [(s.start, s.end) for s in fine.spans] == [
        (0.0, 2.0), (1.0, 4.0), (5.0, 6.0), (0.0, 0.5)]
    other = Timeline()
    other.record(Phase.COMPUTE, 6.0, 7.0, resource="w1", label="x")
    fine.extend(other)
    assert not fine.coarse and len(fine) == 5
    assert fine.spans[-1].label == "x"
    assert fine._agg[(Phase.COMPUTE, "w1")] == [2, 5.0, 7.0, 2.0]


def test_wall_is_exact_over_the_log_and_bounds_without_it():
    fine, coarse = _fine_and_coarse()
    fine.record(Phase.COMPUTE, 10.0, 11.0, resource="w0")
    coarse.record(Phase.COMPUTE, 10.0, 11.0, resource="w0")
    assert fine.wall(Phase.COMPUTE) == 6.0  # [0, 4) + [5, 6) + [10, 11)
    assert coarse.wall(Phase.COMPUTE) == 11.0  # w0's envelope is [0, 11)


def test_busy_and_by_resource_ignore_key_order():
    # Summed left to right, 1e16 + 1 + 1 and 1 + 1 + 1e16 differ.
    entries = [(Phase.COMPUTE, 1e16), (Phase.JNI_CALL, 1.0),
               (Phase.WORKER_COMPRESS, 1.0)]
    forward, backward = Timeline(), Timeline()
    for tl, order in ((forward, entries), (backward, entries[::-1])):
        for phase, busy in order:
            tl.record(phase, 0.0, busy, resource="w0")
    assert forward.busy() == backward.busy() == 1.0000000000000002e16
    assert forward.by_resource() == backward.by_resource()


def test_span_of_selected_phases():
    tl = Timeline()
    tl.record(Phase.HOST_UPLOAD, 0.0, 1.0)
    tl.record(Phase.JNI_CALL, 2.0, 2.5, resource="w0")
    tl.record(Phase.COMPUTE, 2.5, 6.0, resource="w0")
    tl.record(Phase.COLLECT, 6.0, 9.0, resource="driver-nic")
    assert tl.span([Phase.COMPUTE, Phase.JNI_CALL]) == 4.0
    assert tl.span([Phase.BROADCAST]) == 0.0
    assert tl.span() == 9.0


# ----------------------------------------------------------- column records
import numpy as np  # noqa: E402

from repro.simtime.timeline import (  # noqa: E402
    SpanColumns,
    TaskLabel,
    parse_task_label,
    task_label,
    task_labels,
    union_length,
)


def _columns(calls):
    """Two runs of columns; ``calls`` counts label requests."""
    def log(rank, labels):
        def get():
            calls.append(1)
            return np.array(rank), labels
        return get
    return [
        SpanColumns(Phase.COMPUTE, np.array([0.0, 0.1, 0.5]),
                    np.array([0.1, 0.4, 0.9]), ("w0", "w1"),
                    np.array([0, 1, 0]), log([1, 3, 5], ["a", "b", "c"])),
        SpanColumns(Phase.SCHEDULING, np.array([0.0, 0.3]),
                    np.array([0.3, 0.7]), ("driver",), None,
                    log([0, 3], ["d", "e"])),
    ]


def test_record_columns_equals_recording_span_by_span():
    by_span = Timeline(coarse=True)
    by_span.record(Phase.COMPUTE, 0.0, 0.2, resource="w0")  # pre-existing
    for phase, a, b, res in [(Phase.COMPUTE, 0.0, 0.1, "w0"),
                             (Phase.COMPUTE, 0.1, 0.4, "w1"),
                             (Phase.COMPUTE, 0.5, 0.9, "w0"),
                             (Phase.SCHEDULING, 0.0, 0.3, "driver"),
                             (Phase.SCHEDULING, 0.3, 0.7, "driver")]:
        by_span.record(phase, a, b, resource=res)
    calls: list[int] = []
    columns = Timeline(coarse=True)
    columns.record(Phase.COMPUTE, 0.0, 0.2, resource="w0")
    columns.record_columns(_columns(calls))
    assert columns._agg == by_span._agg
    assert calls == []  # no log: labels are never built


def test_record_columns_logs_in_rank_order():
    calls: list[int] = []
    tl = Timeline()
    tl.record_columns(_columns(calls))
    assert calls == [1, 1]
    # Equal ranks (3) keep run order: the COMPUTE run came first.
    assert [s.label for s in tl.spans] == ["d", "a", "b", "e", "c"]
    assert [s.resource for s in tl.spans] == ["driver", "w0", "w1",
                                              "driver", "w0"]
    refold = Timeline(coarse=True)
    for s in tl.spans:
        refold.record(s.phase, s.start, s.end, s.resource)
    assert refold._agg == tl._agg


def test_task_labels_round_trip():
    assert task_label("launch", 7) == "launch-7"
    assert task_label("task", 100003, "i", spec=True) == "i/task-100003-spec"
    assert task_labels("task", [3, 4], "j", [False, True]) == [
        "j/task-3", "j/task-4-spec"]
    for label, parsed in [
        ("launch-7", TaskLabel("launch", 7)),
        ("i/task-100003-spec", TaskLabel("task", 100003, "i", True)),
        ("task-5", TaskLabel("task", 5)),
        ("speculate-12", TaskLabel("speculate", 12)),
    ]:
        assert parse_task_label(label) == parsed
        assert task_label(*parsed) == label
    for other in ("", "coarse:3", "broadcast-b1", "task-", "gemm/x",
                  "spot-reclaimed", "resubmit-2x"):
        assert parse_task_label(other) is None


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(3.0, 4.0), (0.0, 2.0), (1.0, 2.5)]) == 3.5
    assert union_length([(0.0, 1.0), (1.0, 2.0)]) == 2.0
