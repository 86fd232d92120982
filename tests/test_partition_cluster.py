"""The PartitionedCluster facade: wiring, scaling, failures, determinism."""

from __future__ import annotations

import pytest

from repro.partition import PartitionedCluster, PartitionedOpenLoopClients
from repro.workload import SimulationParameters


def build(partitions=2, technique="group-safe", seed=5, items=200,
          **overrides):
    params = SimulationParameters.small(server_count=3, item_count=items)
    if overrides:
        params = params.with_overrides(**overrides)
    cluster = PartitionedCluster(technique, params=params, seed=seed,
                                 partition_count=partitions)
    cluster.start()
    return cluster


# ---------------------------------------------------------------- wiring
def test_groups_share_one_simulator_and_lan():
    cluster = build(partitions=3)
    assert len(cluster.groups) == 3
    for group in cluster.groups:
        assert group.sim is cluster.sim
        assert group.lan is cluster.lan
    # 3 partitions x 3 servers, uniquely named on the shared LAN.
    assert len(cluster.lan.nodes) == 9
    assert cluster.server_names()[:4] == ["p0.s1", "p0.s2", "p0.s3", "p1.s1"]


def test_partition_count_from_params():
    params = SimulationParameters.small(server_count=3, item_count=100)
    cluster = PartitionedCluster(params=params.with_overrides(
        partition_count=4))
    assert cluster.partition_count == 4


def test_constructor_validation():
    params = SimulationParameters.small(item_count=100)
    with pytest.raises(ValueError):
        PartitionedCluster(params=params, partition_count=0)
    with pytest.raises(ValueError):
        PartitionedCluster(params=params, partition_count=2,
                           techniques=["group-safe"])
    with pytest.raises(ValueError):
        PartitionedCluster(params=params, partition_count=2,
                           techniques=["group-safe", "3-safe"])
    with pytest.raises(ValueError):
        PartitionedCluster(params=params, partition_count=2,
                           strategy="alphabetical")


def test_mixed_techniques_per_partition():
    params = SimulationParameters.small(server_count=3, item_count=100)
    cluster = PartitionedCluster(params=params, partition_count=2,
                                 techniques=["group-safe", "1-safe"])
    assert cluster.group(0).technique == "group-safe"
    assert cluster.group(1).technique == "1-safe"


# ---------------------------------------------------------------- scaling
def test_four_partitions_outcommit_one_at_saturating_load():
    """The acceptance property behind benchmarks/bench_partition.py."""
    def committed_at(partitions):
        params = SimulationParameters.small(server_count=3, item_count=400)
        params = params.with_overrides(partition_count=partitions)
        cluster = PartitionedCluster("group-safe", params=params, seed=21)
        cluster.start()
        clients = PartitionedOpenLoopClients(cluster, load_tps=100.0,
                                             warmup=1_000.0)
        clients.start()
        cluster.run(until=7_000)
        return clients.committed_count

    assert committed_at(4) > 1.5 * committed_at(1)


# ---------------------------------------------------------------- failures
def test_partition_crash_leaves_other_partitions_serving():
    cluster = build(partitions=2, cross_partition_probability=0.2, seed=9,
                    items=120)
    clients = PartitionedOpenLoopClients(cluster, load_tps=20.0)
    clients.start()
    cluster.run(until=2_000)
    cluster.crash_partition(1)
    assert not cluster.group(1).up_servers() and cluster.group(0).up_servers()
    committed_before = clients.committed_count
    cluster.run(until=6_000)
    # The surviving partition keeps committing its single-partition traffic;
    # arrivals owned by the dead partition are rejected, not hung.
    assert clients.committed_count > committed_before
    assert clients.rejected_count > 0


def test_run_transaction_to_dead_partition_aborts_instead_of_raising():
    cluster = build(partitions=2)
    cluster.crash_partition(0)
    # item-1 hashes somewhere; find a key owned by the dead partition.
    key = next(f"item-{i}" for i in range(100)
               if cluster.partition_of(f"item-{i}") == 0)
    from tests.conftest import make_program
    waiter = cluster.run_transaction(make_program([("w", key, "v")]))
    cluster.run(until=1_000)     # must not tear down the simulation
    result = waiter.value
    assert not result.committed
    assert result.abort_reason == "partition-unavailable"


def test_collect_statistics_sets_population_throughput():
    cluster = build(partitions=2, cross_partition_probability=0.3, items=120)
    clients = PartitionedOpenLoopClients(cluster, load_tps=20.0)
    clients.start()
    cluster.run(until=4_000)
    from repro.partition import collect_statistics
    stats = collect_statistics(clients, duration_ms=4_000)
    assert stats.single.achieved_throughput_tps > 0
    assert stats.cross.achieved_throughput_tps > 0
    assert stats.achieved_throughput_tps == pytest.approx(
        stats.single.achieved_throughput_tps +
        stats.cross.achieved_throughput_tps)


def test_crash_and_recover_single_server():
    cluster = build(partitions=2)
    cluster.crash_server(0, "p0.s1")
    assert "p0.s1" not in cluster.group(0).up_servers()
    cluster.run(until=500)
    cluster.recover_server(0, "p0.s1")
    cluster.run(until=3_000)
    assert "p0.s1" in cluster.group(0).up_servers()


# ---------------------------------------------------------------- determinism
def test_identical_seeds_produce_identical_runs():
    def run_once():
        cluster = build(partitions=2, seed=33, items=120,
                        cross_partition_probability=0.3)
        clients = PartitionedOpenLoopClients(cluster, load_tps=25.0)
        clients.start()
        cluster.run(until=5_000)
        outcomes = tuple((outcome.xid, outcome.committed,
                          round(outcome.response_time, 9))
                         for outcome in cluster.cross_partition_outcomes())
        return clients.committed_count, outcomes

    assert run_once() == run_once()
