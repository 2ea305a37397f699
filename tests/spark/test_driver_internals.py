"""Driver internals: payload measurement, cost overrides, job isolation."""

import numpy as np
import pytest

from repro.simtime import Phase
from repro.spark import SparkCluster, SparkContext
from repro.spark.driver import Driver
from repro.spark.rdd import MappedRDD, ParallelCollectionRDD
from repro.spark.serialization import sizeof_element

from tests.spark.tables import uniform_costs


@pytest.fixture
def sc():
    return SparkContext(cluster=SparkCluster.for_physical_cores(16, n_workers=2))


def test_input_bytes_follow_lineage_to_the_source(sc):
    """What moves driver->executor is the *source* slice; narrow transforms
    recompute on the worker, they do not inflate the payload."""
    arrays = [np.zeros(1000, dtype=np.float32) for _ in range(4)]
    rdd = (sc.parallelize(arrays, num_slices=4)
           .map(lambda a: a + 1)
           .map(lambda a: a * 2))
    measured = Driver._measure_input_bytes(rdd, 0)
    assert measured == 4000  # one float32[1000] slice, not three


def test_input_bytes_zero_for_non_collection_roots(sc):
    rdd = sc.parallelize([1, 2], num_slices=2)
    # Chop the lineage: a raw RDD subclass without a ParallelCollection root.
    class Rootless(MappedRDD):
        pass

    node = Rootless(rdd, lambda it: it)
    node.parent = object()  # not a ParallelCollectionRDD
    assert Driver._measure_input_bytes(node, 0) == 0


def test_explicit_costs_override_measurement(sc):
    rdd = sc.parallelize([np.zeros(100_000, dtype=np.float64)], num_slices=1)
    result = sc.run_job_detailed(rdd, costs=uniform_costs(1, input_bytes=0, output_bytes=0))
    assert result.timeline.busy(Phase.INTRA_TRANSFER) == 0.0
    assert result.timeline.busy(Phase.COLLECT) == 0.0


def test_measured_output_bytes_drive_collect(sc):
    big = sc.parallelize([0], num_slices=1).map(
        lambda _: np.zeros(50_000_000, dtype=np.uint8)
    )
    result = sc.run_job_detailed(big)
    assert result.timeline.busy(Phase.COLLECT) > 0.03  # 50 MB over 1.25 GB/s


def test_jobs_get_distinct_task_ids(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=2)
    r1 = sc.run_job_detailed(rdd)
    r2 = sc.run_job_detailed(rdd)
    ids1 = {res.task_id for res in r1.stats.results}
    ids2 = {res.task_id for res in r2.stats.results}
    assert not ids1 & ids2


def test_task_costs_defaults_measure():
    """No costs: zero durations, and both payload sizes measured from the
    data — the same spans as a job given those sizes explicitly."""
    data = [np.arange(k * 1000, dtype=np.float32) for k in range(1, 7)]

    def run(costs=None):
        sc = SparkContext(cluster=SparkCluster.for_physical_cores(16, n_workers=2))
        rdd = sc.parallelize(data, num_slices=3).map(lambda a: np.concatenate([a, a]))
        return rdd, sc.run_job_detailed(rdd, costs=costs)

    rdd, measured = run()
    explicit = uniform_costs(3)
    explicit.input_bytes[:] = [sum(sizeof_element(x) for x in rdd.parent.compute(s))
                               for s in range(3)]
    explicit.output_bytes[:] = [sum(sizeof_element(x) for x in p)
                                for p in measured.partitions]
    _, given = run(explicit)

    def spans(result):
        return [(s.label, s.start, s.end) for s in result.timeline.spans
                if s.phase in (Phase.INTRA_TRANSFER, Phase.COLLECT)]

    assert len(spans(measured)) == 6
    assert spans(measured) == spans(given)
    assert measured.timeline.busy(Phase.COMPUTE) == 0.0


def test_collect_without_costs_matches_measuring_closure(sc):
    """A generic ``collect()`` measures input and output sizes; the scatter
    and collect spans are pinned to the values the per-task-object driver
    (whose closures rewrote each task's output size) produced."""
    data = [np.arange(k * 1000, dtype=np.float32) for k in range(1, 7)]
    out = sc.parallelize(data, num_slices=3).map(
        lambda a: np.concatenate([a, a])).collect()
    assert [len(a) for a in out] == [2000 * k for k in range(1, 7)]

    def spans(phase):
        return [(s.label, s.start, s.end) for s in sc.timeline.spans
                if s.phase == phase]

    assert spans(Phase.INTRA_TRANSFER) == [
        ("scatter-100000", 0.004, 0.0045096),
        ("scatter-100001", 0.008, 0.0085224),
        ("scatter-100002", 0.012, 0.0125352),
    ]
    assert spans(Phase.COLLECT) == [
        ("collect-100000", 0.0125352, 0.0130544),
        ("collect-100001", 0.0130544, 0.0135992),
        ("collect-100002", 0.0135992, 0.014169600000000001),
    ]


def test_functional_costs_length_must_match_partitions(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=2)
    with pytest.raises(ValueError, match="3 rows for 2 partitions"):
        sc.driver.run_job(rdd, costs=uniform_costs(3), functional=True)
    with pytest.raises(ValueError, match="3 rows for 2 partitions"):
        sc.driver.run_job(rdd, costs=uniform_costs(3), functional=False)


def test_parallel_collection_slices_match_partitioner(sc):
    data = list(range(11))
    rdd = ParallelCollectionRDD(sc, data, 3)
    sizes = [len(rdd.compute(i)) for i in range(3)]
    assert sizes == [4, 4, 3]
    assert sum(sizes) == 11
