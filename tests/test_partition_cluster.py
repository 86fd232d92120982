"""The PartitionedCluster facade: wiring, scaling, failures, determinism."""

from __future__ import annotations

import pytest

from repro.partition import (CrossPartitionOutcome, PartitionedCluster,
                             PartitionedOpenLoopClients, RoutingTable)
from repro.replication import RunStatistics
from repro.workload import SimulationParameters


def build(partitions=2, technique="group-safe", seed=5, items=200,
          **overrides):
    params = SimulationParameters.small(
        server_count=3, item_count=items).with_overrides(
            partition_count=partitions, **overrides)
    cluster = PartitionedCluster(technique, params=params, seed=seed)
    cluster.start()
    return cluster


def committed(clients):
    """Client-visible commits of the whole run."""
    return sum(answer.committed for answer in clients.results)


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
        PartitionedCluster(params=params.with_overrides(partition_count=0))
    params = params.with_overrides(partition_count=2)
    with pytest.raises(ValueError):
        PartitionedCluster(params=params, techniques=["group-safe"])
    with pytest.raises(ValueError):
        PartitionedCluster(params=params, techniques=["group-safe", "3-safe"])
    with pytest.raises(ValueError):
        PartitionedCluster(params=params, strategy="hash")


def test_the_range_strategy_keyword_builds_the_default_map():
    # Callers that still name the placement get the same cluster as those
    # that do not.
    params = SimulationParameters.small(
        server_count=3, item_count=100).with_overrides(partition_count=3)
    named = PartitionedCluster(params=params, seed=5, strategy="range")
    default = PartitionedCluster(params=params, seed=5)
    assert named.routing.assignments == default.routing.assignments
    assert named.routing.assignments == \
        RoutingTable.even_ranges(3, 100).assignments


def test_mixed_techniques_per_partition():
    params = SimulationParameters.small(
        server_count=3, item_count=100).with_overrides(partition_count=2)
    cluster = PartitionedCluster(params=params,
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
        clients = PartitionedOpenLoopClients(cluster, load_tps=100.0)
        clients.start()
        cluster.run(until=7_000)
        return RunStatistics.of(clients.results, 1_000, 7_000).measured_commits

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
    committed_before = committed(clients)
    cluster.run(until=6_000)
    # The surviving partition keeps committing its single-partition traffic;
    # arrivals owned by the dead partition are rejected, not hung.
    assert committed(clients) > committed_before
    assert clients.rejected_count > 0


def test_run_transaction_to_dead_partition_aborts_instead_of_raising():
    cluster = build(partitions=2)
    cluster.crash_partition(0)
    # Find a key owned by the dead partition.
    key = next(f"item-{i}" for i in range(100)
               if cluster.partition_of(f"item-{i}") == 0)
    from tests.conftest import make_program
    waiter = cluster.run_transaction(make_program([("w", key, "v")]))
    cluster.run(until=1_000)     # must not tear down the simulation
    result = waiter.value
    assert not result.committed
    assert result.abort_reason == "partition-unavailable"


def test_window_summaries_split_by_kind_add_up():
    cluster = build(partitions=2, cross_partition_probability=0.3, items=120)
    clients = PartitionedOpenLoopClients(cluster, load_tps=20.0)
    clients.start()
    cluster.run(until=4_000)

    def window(answers):
        return RunStatistics.of(answers, 1_000, 4_000)

    both = window(clients.results)
    cross = window([answer for answer in clients.results
                    if isinstance(answer, CrossPartitionOutcome)])
    single = window([answer for answer in clients.results
                     if not isinstance(answer, CrossPartitionOutcome)])
    assert single.achieved_throughput_tps > 0
    assert cross.achieved_throughput_tps > 0
    assert both.achieved_throughput_tps == pytest.approx(
        single.achieved_throughput_tps + cross.achieved_throughput_tps)
    assert both.measured_commits == \
        single.measured_commits + cross.measured_commits
    assert both.measured_aborts == \
        single.measured_aborts + cross.measured_aborts
    assert sorted(both.response_times) == \
        sorted(single.response_times + cross.response_times)
    # The warm-up answers stay in the pool; the window leaves them out.
    assert both.measured_commits + both.measured_aborts < len(clients.results)


def test_partitioned_pool_keeps_every_answer_in_answer_order():
    cluster = build(partitions=2, cross_partition_probability=0.3, items=120,
                    seed=9)
    clients = PartitionedOpenLoopClients(cluster, load_tps=20.0)
    clients.start()
    cluster.run(until=2_000)
    warmup = list(clients.results)
    # Warm-up answers of both kinds are kept.
    assert any(isinstance(answer, CrossPartitionOutcome) for answer in warmup)
    assert any(not isinstance(answer, CrossPartitionOutcome)
               for answer in warmup)
    cluster.crash_partition(1)
    cluster.run(until=6_000)
    answered = [answer.responded_at for answer in clients.results]
    assert answered == sorted(answered)
    assert clients.results[:len(warmup)] == warmup
    # An arrival no delegate could take is counted, never answered.
    assert clients.rejected_count > 0
    assert len(clients.results) == clients.submitted_count
    assert len(clients.results) + clients.rejected_count <= \
        cluster.workload.generated_count


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
        return committed(clients), outcomes

    assert run_once() == run_once()
