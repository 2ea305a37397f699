"""Metrics registry: counters, gauges, histograms, exposition format."""

import json
import re

import pytest

from repro.obs.metrics_registry import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
)


def test_counter_inc_and_labels():
    r = MetricsRegistry()
    c = r.counter("repro_test_total", "things")
    c.inc()
    c.inc(2, op="PUT")
    c.inc(op="PUT")
    assert c.value() == 1
    assert c.value(op="PUT") == 3
    assert c.total() == 4


def test_counter_rejects_negative():
    c = MetricsRegistry().counter("c_total")
    with pytest.raises(MetricError):
        c.inc(-1)


def test_gauge_set_inc_dec():
    g = MetricsRegistry().gauge("g")
    g.set(5)
    g.dec(2)
    g.inc()
    assert g.value() == 4


def test_histogram_buckets_are_cumulative():
    h = MetricsRegistry().histogram("h_seconds", buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count() == 3
    assert h.sum() == pytest.approx(55.5)
    lines = h.exposition()
    buckets = [ln for ln in lines if "_bucket" in ln]
    # le="1" sees 1, le="10" sees 2, le="+Inf" sees all 3 — cumulative.
    assert any('le="1"} 1' in ln for ln in buckets)
    assert any('le="10"} 2' in ln for ln in buckets)
    assert any('le="+Inf"} 3' in ln for ln in buckets)


def _observed_one_by_one(values, buckets):
    h = MetricsRegistry().histogram("h_seconds", buckets=buckets)
    for v in values:
        h.observe(v)
    return h


def test_observe_many_counts_values_on_bounds_as_le():
    values = [1.0, 10.0, 0.5, 10.000000000000002, 1.0]
    h = MetricsRegistry().histogram("h_seconds", buckets=(1.0, 10.0))
    h.observe_many(values, op="x")
    ref = _observed_one_by_one(values, (1.0, 10.0))
    assert h.snapshot()["values"][0]["buckets"] == {"1": 3, "10": 4}
    assert h.count(op="x") == 5
    assert [v["buckets"] for v in h.snapshot()["values"]] == \
        [v["buckets"] for v in ref.snapshot()["values"]]


def test_observe_many_of_nothing_changes_nothing():
    h = MetricsRegistry().histogram("h_seconds")
    h.observe_many([])
    assert h.snapshot()["values"] == [] and h.count() == 0
    h.observe(2.0)
    before = h.snapshot()
    h.observe_many([])
    assert h.snapshot() == before


def test_observe_many_sums_sequentially():
    """``[0.1] * 10`` sums to 0.9999999999999999 one by one; a pairwise
    sum would round to 1.0.  Later batches continue from the running
    total."""
    h = MetricsRegistry().histogram("h_seconds")
    h.observe_many([0.1] * 10)
    ref = _observed_one_by_one([0.1] * 10, DEFAULT_BUCKETS)
    assert h.sum() == ref.sum() == 0.9999999999999999
    assert h.snapshot() == ref.snapshot()
    h.observe(0.1)
    h.observe_many([0.1] * 4)
    ref = _observed_one_by_one([0.1] * 15, DEFAULT_BUCKETS)
    assert h.snapshot() == ref.snapshot()


def test_get_or_create_returns_same_object():
    r = MetricsRegistry()
    assert r.counter("x_total") is r.counter("x_total")


def test_kind_clash_raises():
    r = MetricsRegistry()
    r.counter("x_total")
    with pytest.raises(MetricError, match="already registered"):
        r.gauge("x_total")


def test_invalid_names_rejected():
    r = MetricsRegistry()
    with pytest.raises(MetricError):
        r.counter("9starts_with_digit")
    with pytest.raises(MetricError):
        r.counter("has space")
    with pytest.raises(MetricError):
        r.counter("ok_total").inc(**{"bad-label": "x"})


def test_label_escaping():
    c = MetricsRegistry().counter("esc_total")
    c.inc(reason='quote " and \\ and\nnewline')
    line = [ln for ln in c.exposition() if not ln.startswith("#")][0]
    assert '\\"' in line and "\\\\" in line and "\\n" in line
    assert "\n" not in line  # the raw newline never leaks into the sample


def test_prometheus_exposition_parses():
    """The exposition is well-formed Prometheus text format: every sample
    line matches name{labels} value, every family has a # TYPE, the body
    ends with # EOF."""
    r = MetricsRegistry()
    r.counter("repro_ops_total", "Operations.").inc(3, op="PUT")
    r.gauge("repro_active", "In flight.").set(2)
    r.histogram("repro_lat_seconds", "Latency.").observe(0.05)
    text = r.to_prometheus()
    assert text.endswith("# EOF\n")

    sample_re = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*'          # metric name
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'  # first label
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
        r' (\+Inf|-?[0-9.e+-]+)$')            # value
    families = set()
    for line in text.splitlines():
        if line == "# EOF":
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            families.add(line.split()[2])
            continue
        assert sample_re.match(line), line
        base = line.split("{")[0].split(" ")[0]
        base = re.sub(r"_(bucket|sum|count)$", "", base)
        assert base in families, line  # samples follow their TYPE header
    assert {"repro_ops_total", "repro_active", "repro_lat_seconds"} <= families


def test_exposition_is_deterministic():
    def build():
        r = MetricsRegistry()
        r.counter("b_total").inc(zone="b")
        r.counter("a_total").inc(2, zone="a")
        r.counter("b_total").inc(zone="a")
        return r.to_prometheus()

    assert build() == build()
    # Families and labelsets come out sorted regardless of insert order.
    text = build()
    assert text.index("a_total") < text.index("b_total")


def test_integer_values_have_no_trailing_point_zero():
    r = MetricsRegistry()
    r.counter("n_total").inc(7)
    line = [ln for ln in r.to_prometheus().splitlines()
            if ln.startswith("n_total")][0]
    assert line == "n_total 7"


def test_snapshot_round_trips_through_json():
    r = MetricsRegistry()
    r.counter("c_total", "help text").inc(2, op="GET")
    r.histogram("h_seconds").observe(0.3)
    snap = json.loads(r.to_json())
    assert snap["c_total"]["kind"] == "counter"
    assert snap["c_total"]["help"] == "help text"
    assert snap["c_total"]["values"][0]["value"] == 2
    assert snap["h_seconds"]["kind"] == "histogram"


def test_default_buckets_are_increasing():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert len(set(DEFAULT_BUCKETS)) == len(DEFAULT_BUCKETS)


# ------------------------------------------------------------ quantiles
def test_quantile_interpolates_inside_buckets():
    h = MetricsRegistry().histogram("q_seconds", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 3.0, 3.5):
        h.observe(v)
    # rank(0.5) = 2 observations; cumulative hits 2 at le=2: interpolate
    # the second half of (1, 2].
    assert h.quantile(0.5) == pytest.approx(2.0)
    assert h.quantile(0.25) == pytest.approx(1.0)
    assert h.quantile(1.0) == pytest.approx(4.0)
    assert h.quantile(0.0) == pytest.approx(0.0)


def test_quantile_with_empty_leading_bucket():
    # All mass beyond the first bound: interpolation must start at that
    # bound, not at zero (the lower edge advances even through empty
    # buckets).
    h = MetricsRegistry().histogram("q2_seconds", buckets=(1.0, 2.0))
    h.observe(1.2)
    h.observe(1.8)
    assert h.quantile(0.5) == pytest.approx(1.5)


def test_quantile_clamps_overflow_to_last_finite_bound():
    h = MetricsRegistry().histogram("q3_seconds", buckets=(1.0, 2.0))
    h.observe(100.0)
    assert h.quantile(0.99) == pytest.approx(2.0)


def test_quantile_empty_and_out_of_range():
    h = MetricsRegistry().histogram("q4_seconds", buckets=(1.0,))
    assert h.quantile(0.5) == 0.0
    with pytest.raises(MetricError):
        h.quantile(1.5)
    with pytest.raises(MetricError):
        h.quantile(-0.1)


def test_quantiles_snapshot_keys_and_order():
    h = MetricsRegistry().histogram("q5_seconds", buckets=(1.0, 2.0, 4.0))
    for v in (0.2, 0.4, 1.5, 3.0):
        h.observe(v)
    snap = h.quantiles()
    assert list(snap) == ["p50", "p95", "p99"]
    assert snap["p50"] <= snap["p95"] <= snap["p99"]
    assert h.quantiles(qs=(0.25,)) == {"p25": pytest.approx(h.quantile(0.25))}


def test_quantile_respects_labels():
    h = MetricsRegistry().histogram("q6_seconds", buckets=(1.0, 2.0))
    h.observe(0.5, worker="w0")
    h.observe(1.5, worker="w1")
    # Each labelled series interpolates within its own bucket counts.
    assert h.quantile(1.0, worker="w0") == pytest.approx(1.0)
    assert h.quantile(1.0, worker="w1") == pytest.approx(2.0)
    assert h.quantile(1.0) == 0.0  # the unlabelled series is untouched


def test_quantile_round_trips_through_exposition():
    """Recomputing a quantile from the parsed text exposition gives the
    same answer as Histogram.quantile — the text format loses nothing the
    estimator needs."""
    r = MetricsRegistry()
    bounds = (0.5, 1.0, 2.0, 4.0)
    h = r.histogram("rt_seconds", "Round trip.", buckets=bounds)
    for v in (0.1, 0.4, 0.9, 1.5, 1.7, 3.0, 9.0):
        h.observe(v)

    # Parse the cumulative buckets back out of the exposition text.
    parsed: dict[float, int] = {}
    for line in r.to_prometheus().splitlines():
        m = re.match(r'rt_seconds_bucket\{le="([^"]+)"\} (\d+)', line)
        if m and m.group(1) != "+Inf":
            parsed[float(m.group(1))] = int(m.group(2))
        elif m:
            total = int(m.group(2))
    assert sorted(parsed) == list(bounds)

    def quantile_from_text(q):
        rank = q * total
        prev_bound, prev_cum = 0.0, 0
        for bound in bounds:
            cum = parsed[bound]
            if cum >= rank and cum > prev_cum:
                frac = (rank - prev_cum) / (cum - prev_cum)
                return prev_bound + frac * (bound - prev_bound)
            prev_bound, prev_cum = bound, cum
        return bounds[-1]

    for q in (0.1, 0.5, 0.9, 0.95, 0.99):
        assert quantile_from_text(q) == pytest.approx(h.quantile(q))


def test_register_adopts_external_metric():
    from repro.obs.metrics_registry import Counter

    r = MetricsRegistry()
    c = Counter("repro_external_total", "Made elsewhere.")
    c.inc(5)
    assert r.register(c) is c
    assert r.register(c) is c  # same object twice is a no-op
    assert "repro_external_total 5" in r.to_prometheus()
    with pytest.raises(MetricError, match="already registered"):
        r.register(Counter("repro_external_total", "Impostor."))
