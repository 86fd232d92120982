"""Tests of the cluster facade, delegate choice and result bookkeeping."""

from __future__ import annotations

import pytest

from repro.core import (TECHNIQUE_SAFETY, DeliveredOn, LoggedOn,
                        classify_result)
from repro.replication import (TECHNIQUES, DatabaseStateMachineReplica,
                               LazyReplica, ReplicatedDatabaseCluster)
from repro.workload import SimulationParameters
from tests.conftest import build_cluster, make_program


def test_unknown_technique_rejected():
    with pytest.raises(ValueError):
        ReplicatedDatabaseCluster("3-safe")


def test_cluster_builds_requested_topology(small_params):
    cluster = ReplicatedDatabaseCluster("group-safe", params=small_params)
    assert cluster.server_names() == ["s1", "s2", "s3"]
    assert len(cluster.lan.nodes) == 3
    node = cluster.node("s2")
    assert node.cpu.capacity == small_params.cpus_per_server
    assert node.disk.capacity == small_params.disks_per_server
    assert len(cluster.database("s1").items) == small_params.item_count


def test_group_based_techniques_get_a_gcs_and_lazy_does_not(small_params):
    # A technique is a row of TECHNIQUE_SAFETY: the level's delivered-on axis
    # selects the replica class, its logged-on axis the message log, and one
    # committed update classifies to exactly the level claimed.
    assert set(TECHNIQUES) == set(TECHNIQUE_SAFETY)
    for technique in TECHNIQUES:
        level = TECHNIQUE_SAFETY[technique]
        cluster = ReplicatedDatabaseCluster(technique, params=small_params)
        replica = cluster.replica("s1")
        if level.delivered_on is DeliveredOn.ALL:
            assert type(replica) is DatabaseStateMachineReplica
            assert cluster.gcs is not None
            assert cluster.gcs.end_to_end == (technique == "2-safe")
            assert (replica.endpoint.journal is not None) == \
                (level.logged_on is LoggedOn.ALL)
        else:
            assert level.delivered_on is DeliveredOn.ONE
            assert type(replica) is LazyReplica
            assert cluster.gcs is None
        cluster.start()
        outcome = cluster.run_transaction(
            make_program([("w", "item-1", technique)]), server="s1")
        cluster.run(until=1_000)
        assert outcome.value.committed
        assert outcome.value.technique == technique
        assert classify_result(outcome.value) is level


def test_submit_requires_started_cluster(small_params):
    cluster = ReplicatedDatabaseCluster("group-safe", params=small_params)
    with pytest.raises(RuntimeError):
        cluster.submit(cluster.workload.next_program())


def test_choose_delegate_attaches_each_client_to_one_server(cluster_factory):
    cluster = cluster_factory("group-safe")
    assert cluster.choose_delegate(0) == "s1"
    assert cluster.choose_delegate(4) == "s2"
    cluster.crash_all()
    with pytest.raises(ValueError):
        cluster.choose_delegate(0)


def test_choose_delegate_skips_crashed_servers(cluster_factory):
    cluster = cluster_factory("group-safe")
    cluster.crash_server("s1")
    choices = {cluster.choose_delegate(index) for index in range(6)}
    assert "s1" not in choices
    assert choices == {"s2", "s3"}


def test_crash_all_and_up_servers(cluster_factory):
    cluster = cluster_factory("group-safe")
    assert cluster.up_servers() == ["s1", "s2", "s3"]
    cluster.crash_all()
    assert cluster.up_servers() == []


def test_crashed_delegate_fails_pending_clients(cluster_factory):
    cluster = cluster_factory("group-1-safe")
    # Freeze processing everywhere so the transaction stays pending.
    for name in cluster.server_names():
        cluster.replica(name).processing_gate.close()
    waiter = cluster.run_transaction(cluster.workload.update_only_program(2),
                                     server="s1")
    cluster.run(until=200.0)
    assert not waiter.triggered
    cluster.crash_server("s1")
    cluster.run(until=cluster.sim.now + 10.0)
    assert waiter.triggered
    assert not waiter.value.committed
    assert waiter.value.abort_reason == "delegate-crash"


def test_run_statistics_helper():
    from repro.partition import CrossPartitionOutcome
    from repro.replication import RunStatistics, TransactionResult
    answers = [
        TransactionResult("t0", True, "s1", 999.0, 1_000.0),  # before start
        TransactionResult("t1", True, "s1", 1_000.0, 1_050.0),
        TransactionResult("t2", True, "s1", 2_000.0, 2_150.0),
        TransactionResult("t3", False, "s1", 3_000.0, 3_010.0,
                          abort_reason="certification"),
        CrossPartitionOutcome("x1", True, 4_000.0, 4_100.0, partitions=(0, 1)),
        CrossPartitionOutcome("x2", False, 5_000.0, 5_020.0, partitions=(0, 1),
                              abort_reason="xpartition-validation"),
        TransactionResult("t4", True, "s1", 11_000.0, 11_001.0),  # at end
    ]
    stats = RunStatistics.of(answers, 1_000.0, 11_000.0)
    assert stats.measured_commits == 3
    assert stats.measured_aborts == 2
    assert stats.response_times == [50.0, 150.0, 100.0]
    assert stats.mean_response_time == 100.0
    assert stats.abort_rate == pytest.approx(2 / 5)
    assert stats.achieved_throughput_tps == pytest.approx(0.3)
    assert stats.abort_reasons == {"certification": 1,
                                   "xpartition-validation": 1}
    assert stats.percentile(0.0) == 50.0
    assert stats.percentile(1.0) == 150.0
