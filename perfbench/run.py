"""Wall-clock benchmark of the offload pipeline and the simulator.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

One caller issues a workload's operations back to back (a closed loop) for
``--seconds``, after set-up and one untimed warm-up pass.  With ``--trace 0``
it reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it times an untraced run, then a run with spans around each layer's public
callables, and reports the per-layer metrics.  Human-readable lines and a
``meta`` line with the run's metadata come first; the last line of standard
output is the JSON result.  Run metadata, metrics and spans are also written
to ``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("paper_sweep", "sim_scale", "sim_faults", "functional_mix")
#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_RUNS = 5
#: :func:`speed_probe` time of the reference host that times are scaled to.
REFERENCE_PROBE_S = 1.5e-3
#: p90 needs at least this many samples beyond it.
TAIL_SAMPLES = 10

#: What ``setup_s`` times in a fresh interpreter: import the package, build a
#: runtime and a cloud device, run one tiny functional offload.  Prints the
#: time and the mean of the speed probes taken just before and after it.
SETUP_SNIPPET = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[2])
from run import speed_probe
before = speed_probe()
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
from repro.omp import CloudDevice, OffloadRuntime, demo_config, offload
from repro.workloads import WORKLOADS
rt = OffloadRuntime()
rt.register(CloudDevice(demo_config(n_workers=2), physical_cores=8))
spec = WORKLOADS["gemm"]
arrays = spec.inputs(8, seed=0)
want = spec.reference({k: v.copy() for k, v in arrays.items()}, spec.scalars(8))
report = offload(spec.build_region("CLOUD"), arrays=arrays, scalars=spec.scalars(8),
                 runtime=rt)
elapsed = perf_counter() - t0
ok = report.device_name == "CLOUD" and np.allclose(arrays["C"], want["C"],
                                                   rtol=3e-5, atol=1e-4)
print(elapsed, (before + speed_probe()) / 2 if ok else "wrong")
"""


def use_checkout_sources() -> None:
    """Import the program from this checkout's ``src``, nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))


# -------------------------------------------------------------- statistics
def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 1), refused with ValueError
    unless at least :data:`TAIL_SAMPLES` samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < TAIL_SAMPLES:
        raise ValueError(f"p{round(q * 100)} of {len(ordered)} samples has "
                         f"{max(beyond, 0)} beyond it, needs {TAIL_SAMPLES}")
    return ordered[rank - 1]


def failed_share(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


# ------------------------------------------------------------------ passes
class Ledger:
    """Everything one pass of a workload did.  Times are speed-normalised
    (see :func:`speed_probe`); ``raw_*`` keep the host seconds as read."""

    COUNTERS = ("tasks_run", "tasks_recomputed", "tasks_speculated",
                "speculation_wins", "fused_regions", "resident_hits",
                "resumes", "tiles_skipped")

    def __init__(self) -> None:
        self.wall_s = self.raw_wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.totals: Counter[str] = Counter()

    def add(self, rec, scale: float) -> None:
        self.raw_latencies += rec.latencies
        self.latencies += [x * scale for x in rec.latencies]
        for report in rec.reports:
            for key in self.COUNTERS:
                self.totals[key] += getattr(report, key)
        for result in rec.chaos:
            self.totals["resumes"] += result.resumes
            self.totals["tiles_skipped"] += result.tiles_skipped
        self.totals["events"] += rec.events


def speed_probe() -> float:
    """Host seconds for a fixed slice (~1.5 ms) of pure-Python work.

    The host's CPU speed can swing by 2x within seconds on a shared machine.
    Each operation's times are scaled by ``REFERENCE_PROBE_S`` over the mean
    of the probes just before and after it, which reports them at the speed
    of a host whose probe takes exactly ``REFERENCE_PROBE_S``."""
    t0 = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return perf_counter() - t0


def run_pass(scenario, tracer=None) -> Ledger:
    """Issue every operation of ``scenario`` once, back to back."""
    from scenarios import Record

    gc.collect()
    ledger = Ledger()
    before = speed_probe()
    for op in scenario.ops:
        if tracer is not None:
            tracer.offload += 1
        ledger.attempted += 1
        rec = Record()
        t0 = perf_counter()
        try:
            op(rec)
            ok = True
        except Exception as exc:  # one failed operation, not a failed run
            ok = False
            ledger.failed += 1
            ledger.errors.append(f"{op.__name__}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
        op_s = perf_counter() - t0
        after = speed_probe()
        scale = REFERENCE_PROBE_S / ((before + after) / 2)
        before = after
        ledger.raw_wall_s += op_s
        ledger.wall_s += op_s * scale
        if ok:
            ledger.add(rec, scale)
    return ledger


def run_for(scenario, seconds: float, tracer=None) -> list[Ledger]:
    """Passes back to back until ``seconds`` have elapsed (at least one)."""
    passes: list[Ledger] = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        passes.append(run_pass(scenario, tracer))
    return passes


# ---------------------------------------------------------------- metrics
def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median speed-normalised ``setup_s`` over ``runs`` fresh interpreters."""
    times = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(Path(__file__).parent)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        elapsed, probe = out.stdout.split()
        if probe == "wrong":
            raise RuntimeError("the set-up offload missed its oracle")
        times.append(float(elapsed) * REFERENCE_PROBE_S / float(probe))
    return statistics.median(times)


def timings(passes: list[Ledger], raw: bool = False) -> dict[str, float]:
    """Pass and offload times of the timed passes, speed-normalised or raw."""
    walls = [p.raw_wall_s if raw else p.wall_s for p in passes]
    latencies = [x for p in passes for x in (p.raw_latencies if raw else p.latencies)]
    busy = sum(walls)
    return {
        "wall_s": statistics.median(walls),
        "offloads_per_s": len(latencies) / busy,
        "offload_p50_ms": statistics.median(latencies) * 1e3,
        "sim_tasks_per_s": sum(p.totals["tasks_run"] for p in passes) / busy,
    }


def end_to_end(passes: list[Ledger], setup_s: float) -> tuple[dict, dict]:
    """The gated end-to-end metrics, plus the p90 line (reported only)."""
    values = timings(passes)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = {"wall_s": "s", "offloads_per_s": "1/s", "offload_p50_ms": "ms",
             "sim_tasks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    latencies = [x for p in passes for x in p.latencies]
    try:
        p90 = {"value": percentile(latencies, 0.9) * 1e3, "unit": "ms",
               "samples": len(latencies)}
    except ValueError as exc:
        p90 = {"refused": str(exc), "samples": len(latencies)}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, p90


def machine_probe() -> dict[str, float]:
    """Fixed pure-Python and NumPy work, timed, to normalise trajectories."""
    import numpy as np

    python_s = sum(speed_probe() for _ in range(50))
    a = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
    t0 = perf_counter()
    for _ in range(10):
        a = a @ a
        a /= np.abs(a).max()
    return {"python_loop_s": python_s, "numpy_matmul_s": perf_counter() - t0}


def metadata(args) -> dict[str, object]:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "machine": platform.machine(), "probe": machine_probe(),
    }


# ------------------------------------------------------------------- main
def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    from oracle import DigestBook
    from scenarios import SCENARIOS

    meta = metadata(args)
    setup_s = None if args.trace else measure_setup()
    scenario = SCENARIOS[args.workload](args.seed, DigestBook.load())
    ledgers = [run_pass(scenario)]  # warm-up: checked, not timed
    if args.trace:
        metrics, extra = traced_run(scenario, args.seconds, ledgers)
    else:
        passes = run_for(scenario, args.seconds)
        ledgers += passes
        metrics, p90 = end_to_end(passes, setup_s)
        extra = {"offload_p90_ms": p90, "raw": timings(passes, raw=True),
                 "pass_walls_s": [p.wall_s for p in passes],
                 "raw_pass_walls_s": [p.raw_wall_s for p in passes]}

    attempted = sum(p.attempted for p in ledgers)
    failed = sum(p.failed for p in ledgers)
    spans = extra.pop("spans", None)
    meta.update(extra, attempted=attempted, failed=failed,
                failed_share=failed_share(attempted, failed),
                errors=[e for p in ledgers for e in p.errors][:20])
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, "metrics": metrics,
                               "spans": spans}) + "\n")

    print(f"{args.workload}  seed={args.seed}  trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        p90 = extra["offload_p90_ms"]
        line = (f"{p90['value']:>14.6g} ms" if "value" in p90
                else f"{'refused':>14}")
        print(f"  {'offload_p90_ms':<36} {line}  (n={p90['samples']})")
    print(f"  {'failed_share':<36} {meta['failed_share']:>14.6g} ratio"
          f"  ({failed}/{attempted})")
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_run(scenario, seconds: float, ledgers: list[Ledger]):
    """Untraced reference, bus-detached reference (workloads with a bus),
    then the traced run; per-layer metrics per pass of the traced run."""
    import layers
    from spans import Tracer, span_records

    share = seconds / (3 if hasattr(scenario, "instrumented") else 2)
    plain = run_for(scenario, share)
    detached = None
    if hasattr(scenario, "instrumented"):
        scenario.instrumented = False
        try:
            detached = run_for(scenario, share)
        finally:
            scenario.instrumented = True
    tracer = Tracer()
    with tracer.patched(layers.install):
        traced = run_for(scenario, share, tracer)
    ledgers += plain + traced + (detached or [])

    def median_wall(passes):
        return statistics.median(p.wall_s for p in passes)

    totals: Counter[str] = Counter()
    for p in traced:
        totals.update(p.totals)
    values = layers.per_layer_metrics(
        tracer, totals, len(traced),
        plain_wall_s=median_wall(plain), traced_wall_s=median_wall(traced),
        detached_wall_s=median_wall(detached) if detached else None)
    metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in values.items()}
    return metrics, {"pass_walls_s": {"plain": [p.wall_s for p in plain],
                                      "traced": [p.wall_s for p in traced],
                                      "detached": [p.wall_s for p in detached or []]},
                     "spans": span_records(tracer.spans)}


if __name__ == "__main__":
    sys.exit(main())
