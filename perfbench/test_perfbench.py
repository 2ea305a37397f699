"""Tests of the benchmark's own code, at tiny sizes."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import scenarios
from oracle import DigestBook
from spans import Span, SpanSummary, Tracer, self_times

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def recorded(cls, seed=3):
    """A tiny scenario plus a digest book that learned its reports."""
    book = DigestBook({}, record=True)
    scenario = cls(seed, book, tiny=True)
    learned = run.run_pass(scenario)
    assert learned.failed == 0, learned.errors
    book.record = False
    return scenario, book


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_tiny_smoke_run_of_each_workload(name):
    scenario, book = recorded(scenarios.SCENARIOS[name])
    ledger = run.run_pass(scenario)
    assert ledger.failed == 0, ledger.errors
    assert ledger.attempted == len(scenario.ops)
    assert ledger.latencies and ledger.totals["tasks_run"] > 0


def test_functional_mix_exercises_its_mechanisms():
    scenario, _ = recorded(scenarios.FunctionalMix)
    totals = run.run_pass(scenario).totals
    assert totals["fused_regions"] == 3
    assert totals["resumes"] > 0


def test_self_time_subtracts_children_once():
    parent = Span("p", 0.0, None, 1)
    parent.end = 10.0
    a, b, c = (Span(n, s, parent, 1) for n, s in (("a", 1.0), ("b", 2.0), ("c", 6.0)))
    a.end, b.end, c.end = 3.0, 5.0, 7.0  # a and b overlap on [2, 3]
    grandchild = Span("g", 2.5, b, 1)
    grandchild.end = 4.0
    selfs = self_times([parent, a, b, c, grandchild])
    assert selfs[id(parent)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[id(b)] == pytest.approx(3.0 - 1.5)
    assert selfs[id(grandchild)] == pytest.approx(1.5)
    summary = SpanSummary([parent, a, b, c, grandchild])
    assert summary.self_s("p") == pytest.approx(5.0)
    assert summary.total_s("a", "b") == pytest.approx(5.0)


def test_nested_repeat_counts_once_in_totals():
    outer = Span("x", 0.0, None, 1)
    outer.end = 4.0
    inner = Span("x", 1.0, outer, 1)
    inner.end = 2.0
    summary = SpanSummary([outer, inner])
    assert summary.total_s("x") == pytest.approx(4.0)
    assert summary.calls("x") == 2
    assert summary.self_s("x") == pytest.approx(4.0)


def test_p90_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    assert run.percentile(samples, 0.9) == 90.0
    with pytest.raises(ValueError, match="9 beyond"):
        run.percentile(samples[:99], 0.9)
    passes = [run.Ledger()]
    passes[0].wall_s, passes[0].latencies = 1.0, [0.01] * 50
    _, p90 = run.end_to_end(passes, setup_s=0.5)
    assert "refused" in p90 and p90["samples"] == 50


def test_digest_mismatch_counts_as_failed_operation():
    scenario, book = recorded(scenarios.SimScale)
    book.digests[scenario.key] = "0" * 64
    ledger = run.run_pass(scenario)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "digest" in ledger.errors[0]
    assert run.failed_share(ledger.attempted, ledger.failed) == 1.0


def test_wrong_numpy_oracle_counts_as_failed_operation(monkeypatch):
    spec = scenarios.WORKLOADS["covar"]

    def wrong(arrays, scalars):
        return {k: v + 1.0 for k, v in spec.reference(arrays, scalars).items()}

    monkeypatch.setitem(scenarios.WORKLOADS, "covar",
                        dataclasses.replace(spec, reference=wrong))
    scenario = scenarios.FunctionalMix(3, DigestBook({}), tiny=True)
    ledger = run.run_pass(scenario)
    # covar below and above min_compress_size, and the covar chaos run
    assert ledger.failed == 3
    assert all("covar" in e and "oracle" in e for e in ledger.errors)


def test_traced_run_removes_its_wrappers():
    scenario, _ = recorded(scenarios.FunctionalMix)
    watched = [(scenarios.ParallelLoop, "tile_flops"), (scenarios.figures, "run_point"),
               (layers.codegen.SparkJobGenerator, "run"),
               (layers.codegen, "partition_windows"), (layers.ObjectStore, "put"),
               (layers.OffloadJournal, "record")]
    before = [getattr(owner, attr) for owner, attr in watched]
    spec = scenarios.WORKLOADS["gemm"]
    region = spec.build_region("CLOUD")
    body = region.loops[0].body
    tracer = Tracer()
    with tracer.patched(layers.install):
        assert all(getattr(o, a) is not f for (o, a), f in zip(watched, before))
        ledger = run.run_pass(scenario, tracer)
        scenarios.offload(region, arrays=spec.inputs(8), scalars=spec.scalars(8),
                          runtime=scenarios._cloud_runtime())
    assert ledger.failed == 0, ledger.errors
    assert [getattr(owner, attr) for owner, attr in watched] == before
    assert region.loops[0].body is body
    values = layers.per_layer_metrics(tracer, ledger.totals, 1, plain_wall_s=1.0,
                                      traced_wall_s=1.1, detached_wall_s=None)
    assert list(values) == [name for name, _, _ in layers.PER_LAYER]
    assert values["workloads.kernel_s"] > 0 and values["core.runtime.taskwait_s"] > 0
    assert values["core.staging_cache.hit_ratio"] > 0
    assert values["trace.overhead_s"] == pytest.approx(0.1)


def test_wrappers_are_removed_when_the_traced_run_raises():
    original = scenarios.ParallelLoop.tile_flops
    with pytest.raises(RuntimeError):
        with Tracer().patched(layers.install):
            raise RuntimeError("boom")
    assert scenarios.ParallelLoop.tile_flops is original


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in layers.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    passes = [run.Ledger()]
    passes[0].wall_s, passes[0].latencies = 1.0, [0.01] * 5
    passes[0].totals["tasks_run"] = 10
    metrics, _ = run.end_to_end(passes, setup_s=0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim_scale",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
