"""Tests of the cluster facade, routing policies and result bookkeeping."""

from __future__ import annotations

import pytest

from repro.core import (TECHNIQUE_SAFETY, DeliveredOn, LoggedOn,
                        classify_result)
from repro.replication import (TECHNIQUES, DatabaseStateMachineReplica,
                               LazyReplica, PrimaryCopyRouting,
                               ReplicatedDatabaseCluster,
                               UpdateEverywhereRouting, make_routing)
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


def test_routing_policies():
    update_everywhere = UpdateEverywhereRouting()
    assert update_everywhere.choose(["s1", "s2", "s3"], 0) == "s1"
    assert update_everywhere.choose(["s1", "s2", "s3"], 4) == "s2"
    primary = PrimaryCopyRouting("s2")
    assert primary.choose(["s1", "s2", "s3"], 7) == "s2"
    default_primary = PrimaryCopyRouting()
    assert default_primary.choose(["s1", "s2"], 3) == "s1"
    with pytest.raises(ValueError):
        primary.choose(["s1"], 0)
    with pytest.raises(ValueError):
        update_everywhere.choose([], 0)
    assert isinstance(make_routing("update-everywhere"), UpdateEverywhereRouting)
    assert isinstance(make_routing("primary-copy", "s1"), PrimaryCopyRouting)
    with pytest.raises(ValueError):
        make_routing("round-robin")


def test_primary_copy_cluster_routes_everything_to_the_primary(small_params):
    cluster = ReplicatedDatabaseCluster("1-safe", params=small_params,
                                        routing="primary-copy", primary="s1",
                                        seed=2)
    cluster.start()
    waiters = [cluster.run_transaction(cluster.workload.update_only_program(2))
               for _ in range(4)]
    cluster.run(until=4_000.0)
    assert all(waiter.value.delegate == "s1" for waiter in waiters)


def test_choose_delegate_skips_crashed_servers(cluster_factory):
    cluster = cluster_factory("group-safe")
    cluster.crash_server("s1")
    choices = {cluster.choose_delegate(index) for index in range(6)}
    assert "s1" not in choices
    assert choices == {"s2", "s3"}


def test_all_results_aggregates_across_servers(cluster_factory):
    cluster = cluster_factory("group-safe")
    for index, server in enumerate(cluster.server_names()):
        cluster.run_transaction(cluster.workload.update_only_program(2),
                                server=server)
    cluster.run(until=4_000.0)
    results = cluster.all_results()
    assert len(results) == 3
    assert {result.delegate for result in results} == {"s1", "s2", "s3"}
    assert results == sorted(results, key=lambda result: result.responded_at)


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
    from repro.replication import RunStatistics, TransactionResult
    stats = RunStatistics(technique="group-safe", simulated_duration_ms=10_000)
    stats.record(TransactionResult("t1", True, "s1", 0.0, 50.0))
    stats.record(TransactionResult("t2", True, "s1", 0.0, 150.0))
    stats.record(TransactionResult("t3", False, "s1", 0.0, 10.0,
                                   abort_reason="certification"))
    assert stats.measured_commits == 2
    assert stats.mean_response_time == 100.0
    assert stats.abort_rate == pytest.approx(1 / 3)
    assert stats.achieved_throughput_tps == pytest.approx(0.2)
    assert stats.abort_reasons == {"certification": 1}
    assert stats.percentile(0.0) == 50.0
    assert stats.percentile(1.0) == 150.0
