"""Bit-identity of the scaled simulation core (docs/PERFORMANCE.md).

The 10k-worker/1M-task scaling work rebuilt the hot paths — vectorized cost
synthesis, columnar task state, O(log n) executor selection, coarse
timelines — under one contract: **no observable result changes**.  These
properties pin that contract on randomized small grids:

* a modeled offload is bit-deterministic run to run — same
  ``OffloadReport.to_dict()`` and the same journal records;
* running under ``coarse_timelines()`` changes *nothing* observable — the
  report dict and journal are byte-equal to the fine-grained run, and the
  coarse aggregates match aggregates recomputed from the fine run's spans;
* the vectorized kernels agree with the scalar reference implementations
  in :mod:`tests.oracles` to the last bit: ``partition_windows`` vs
  ``partition_for_tile``, ``task_timing_vec`` vs ``task_timing``.

The exact, order-sensitive oracle for coarse job aggregates is
``test_property_coarse_fold.py``.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import nullcontext

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.buffers import ExecutionMode
from repro.core.exprs import parse_expr
from repro.core.omp_ast import MapType
from repro.core.partition import PartitionSpec, partition_windows
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.metrics.figures import demo_config
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.perfmodel.compute import ComputeModel
from repro.simtime import coarse_timelines
from repro.spark.faults import FaultPlan
from repro.spark.schedule import ScheduleConfig

from tests.oracles import Tile, partition_for_tile, task_timing


def _region(chunk: int | None) -> TargetRegion:
    sched = f"schedule(static, {chunk})" if chunk else "schedule(static)"
    return TargetRegion(
        name="ident",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N*R]) map(from: C[:N*R])"],
        loops=[ParallelLoop(
            pragma=f"omp parallel for {sched}",
            loop_var="i", trip_count="N",
            reads=("A",), writes=("C",),
            partition_pragma="omp target data map(to: A[i*R:(i+1)*R]) "
                             "map(from: C[i*R:(i+1)*R])",
            flops_per_iter=2.5e5,
            body=None,
        )],
    )


def _offload_once(workers: int, tasks: int, r: int, density: float,
                  sigma: float, chunk: int | None, mode: str,
                  speculation: bool, ssh_failures: int,
                  coarse: bool):
    cal = dataclasses.replace(DEFAULT_CALIBRATION, straggler_sigma=sigma)
    plan = FaultPlan(ssh_connect_failures=ssh_failures)
    dev = CloudDevice(demo_config(workers), physical_cores=workers * 4,
                      calibration=cal, fault_plan=plan,
                      schedule=ScheduleConfig(mode=mode,
                                              speculation=speculation))
    rt = OffloadRuntime()
    rt.register(dev)
    with coarse_timelines() if coarse else nullcontext():
        rep = offload(_region(chunk), scalars={"N": tasks, "R": r},
                      runtime=rt, mode=ExecutionMode.MODELED,
                      densities={"A": density, "C": density})
    journal = [dataclasses.asdict(rec) for rec in dev.journal.records()]
    for rec in journal:
        # The correlation id embeds a process-global offload counter
        # (`ident#3`, `ident#4`, ...) — session state, not run state.
        rec.pop("correlation_id", None)
    return rep, journal


GRID = dict(
    workers=st.sampled_from([1, 2, 3]),
    tasks=st.integers(min_value=1, max_value=40),
    r=st.integers(min_value=1, max_value=4),
    density=st.sampled_from([0.25, 1.0]),
    sigma=st.sampled_from([0.0, 0.3]),
    chunk=st.sampled_from([None, 1, 3]),
    mode=st.sampled_from(["static", "weighted"]),
    speculation=st.booleans(),
    ssh_failures=st.integers(min_value=0, max_value=2),
)


@given(**GRID)
@settings(max_examples=20, deadline=None)
def test_offload_is_bit_deterministic(workers, tasks, r, density, sigma,
                                      chunk, mode, speculation, ssh_failures):
    rep_a, journal_a = _offload_once(workers, tasks, r, density, sigma,
                                     chunk, mode, speculation, ssh_failures,
                                     coarse=False)
    rep_b, journal_b = _offload_once(workers, tasks, r, density, sigma,
                                     chunk, mode, speculation, ssh_failures,
                                     coarse=False)
    assert rep_a.to_dict() == rep_b.to_dict()
    assert journal_a == journal_b


@given(**GRID)
@settings(max_examples=20, deadline=None)
def test_coarse_timelines_change_nothing_observable(workers, tasks, r,
                                                    density, sigma, chunk,
                                                    mode, speculation,
                                                    ssh_failures):
    rep_fine, journal_fine = _offload_once(workers, tasks, r, density, sigma,
                                           chunk, mode, speculation,
                                           ssh_failures, coarse=False)
    rep_coarse, journal_coarse = _offload_once(workers, tasks, r, density,
                                               sigma, chunk, mode,
                                               speculation, ssh_failures,
                                               coarse=True)
    assert rep_fine.to_dict() == rep_coarse.to_dict()
    assert journal_fine == journal_coarse

    # The coarse aggregates must agree with aggregates recomputed from the
    # fine run's spans: same span count, same envelope, same busy-seconds
    # (busy compared with a relative tolerance only because summation order
    # differs between the two accumulations).
    fine_agg: dict[tuple, list] = {}
    for s in rep_fine.timeline.spans:
        e = fine_agg.setdefault((s.phase, s.resource),
                                [0, math.inf, -math.inf, 0.0])
        e[0] += 1
        e[1] = min(e[1], s.start)
        e[2] = max(e[2], s.end)
        e[3] += s.duration
    coarse_agg = rep_coarse.timeline._agg
    assert coarse_agg is not None
    assert set(coarse_agg) == set(fine_agg)
    for key, (cnt, lo, hi, busy) in coarse_agg.items():
        f_cnt, f_lo, f_hi, f_busy = fine_agg[key]
        assert cnt == f_cnt, key
        assert lo == f_lo and hi == f_hi, key
        assert math.isclose(busy, f_busy, rel_tol=1e-9, abs_tol=1e-12), key


# ------------------------------------------------- vectorized vs scalar
@given(
    tasks=st.integers(min_value=1, max_value=60),
    r=st.integers(min_value=1, max_value=7),
    chunk=st.integers(min_value=1, max_value=5),
    off=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=50, deadline=None)
def test_partition_windows_matches_scalar_reference(tasks, r, chunk, off):
    spec = PartitionSpec(
        name="A", map_type=MapType.TO,
        lower=parse_expr(f"i*{r}+{off}"),
        upper=parse_expr(f"(i+1)*{r}+{off}"),
        loop_var="i")
    tiles = [Tile(index=j, lo=lo, hi=min(lo + chunk, tasks))
             for j, lo in enumerate(range(0, tasks, chunk))]
    lo = np.fromiter((t.lo for t in tiles), dtype=np.int64, count=len(tiles))
    hi = np.fromiter((t.hi for t in tiles), dtype=np.int64, count=len(tiles))
    wlo, whi = partition_windows(spec, lo, hi, {})
    for j, t in enumerate(tiles):
        s_lo, s_hi = partition_for_tile(spec, t, {})
        assert (int(wlo[j]), int(whi[j])) == (s_lo, s_hi)


@given(
    n=st.integers(min_value=1, max_value=50),
    sigma=st.sampled_from([0.0, 0.2, 0.7]),
    tasks_on_node=st.integers(min_value=1, max_value=64),
    slots=st.integers(min_value=1, max_value=16),
    intensity=st.floats(min_value=0.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False),
    jni_calls=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=50, deadline=None)
def test_task_timing_vec_matches_scalar_reference(n, sigma, tasks_on_node,
                                                  slots, intensity,
                                                  jni_calls):
    cal = dataclasses.replace(DEFAULT_CALIBRATION, straggler_sigma=sigma)
    model = ComputeModel(cal)
    flops = np.arange(1, n + 1, dtype=np.float64) * 1.25e5
    idx = np.arange(n, dtype=np.int64)
    compute_vec, jni_vec = model.task_timing_vec(
        flops, tasks_on_node, slots, intensity, idx, jni_calls=jni_calls)
    for j in range(n):
        t = task_timing(model, float(flops[j]), tasks_on_node, slots,
                        intensity, task_index=j, jni_calls=jni_calls)
        assert compute_vec[j] == t.compute_s, j
        assert jni_vec[j] == t.jni_s, j
