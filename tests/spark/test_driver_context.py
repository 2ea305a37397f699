"""Driver + SparkContext: job execution, costs, timelines, fault plans."""

import numpy as np
import pytest

from repro.simtime import Phase
from repro.spark import FaultPlan, SparkCluster, SparkContext

from tests.spark.tables import uniform_costs


@pytest.fixture
def sc():
    return SparkContext(cluster=SparkCluster.for_physical_cores(16, n_workers=2))


def test_run_job_detailed_returns_partitions_and_stats(sc):
    rdd = sc.parallelize(list(range(8)), num_slices=4).map(lambda x: x + 1)
    result = sc.run_job_detailed(rdd)
    assert [x for p in result.partitions for x in p] == list(range(1, 9))
    assert result.stats.tasks == 4
    assert result.makespan_s > 0


def test_costs_control_durations(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=4)
    result = sc.run_job_detailed(rdd, costs=uniform_costs(4, compute_s=2.0, jni_s=0.1))
    assert result.timeline.busy(Phase.COMPUTE) == pytest.approx(8.0)
    assert result.timeline.busy(Phase.JNI_CALL) == pytest.approx(0.4)


def test_input_bytes_measured_from_source_partition(sc):
    arrays = [np.zeros(1000, dtype=np.float32) for _ in range(4)]
    rdd = sc.parallelize(arrays, num_slices=2).map(lambda a: a.sum())
    result = sc.run_job_detailed(rdd)
    scattered = [s for s in result.timeline.spans if s.phase == Phase.INTRA_TRANSFER]
    assert len(scattered) == 2  # one per partition


def test_output_bytes_measured_from_results(sc):
    rdd = sc.parallelize([0, 1], num_slices=2).map(
        lambda i: np.zeros(10_000_000, dtype=np.float64)
    )
    result = sc.run_job_detailed(rdd)
    collects = [s for s in result.timeline.spans if s.phase == Phase.COLLECT]
    assert len(collects) == 2
    assert result.timeline.busy(Phase.COLLECT) > 0.1  # 160 MB over the LAN


def test_broadcast_participates_in_jobs(sc):
    table = sc.broadcast({0: "a", 1: "b"}, nbytes=50_000_000)
    rdd = sc.parallelize([0, 1, 0], num_slices=3).map(lambda k: table.value[k])
    result = sc.run_job_detailed(rdd)
    assert [x for p in result.partitions for x in p] == ["a", "b", "a"]
    assert result.timeline.busy(Phase.BROADCAST) > 0


def test_context_timeline_accumulates_jobs(sc):
    rdd = sc.parallelize([1, 2, 3])
    rdd.collect()
    n1 = len(sc.timeline)
    rdd.collect()
    assert len(sc.timeline) > n1
    assert sc.jobs_run >= 2


def test_fault_plan_from_context():
    sc = SparkContext(
        cluster=SparkCluster.for_physical_cores(32, n_workers=2),
        fault_plan=FaultPlan(fail_task_number={"worker-0": 1}),
    )
    out = sc.parallelize(list(range(10)), num_slices=5).map(lambda x: x * 2).collect()
    assert out == [x * 2 for x in range(10)]


def test_stop_destroys_broadcasts(sc):
    bc = sc.broadcast([1, 2, 3])
    sc.stop()
    assert bc.is_destroyed


def test_modeled_job_returns_empty_partitions(sc):
    rdd = sc.parallelize(list(range(4)), num_slices=2)
    result = sc.run_job_detailed(
        rdd, costs=uniform_costs(2, compute_s=1.0, input_bytes=0, output_bytes=0),
        functional=False,
    )
    assert result.partitions == [[], []]
    assert result.makespan_s >= 1.0


def test_clock_is_shared_with_cluster(sc):
    before = sc.clock.now
    sc.parallelize([1]).collect()
    assert sc.clock.now > before
    assert sc.clock is sc.cluster.clock
