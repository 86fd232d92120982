"""A recovering server never aborts the run (ROADMAP ★20).

After ``recover_server`` a node is up 0.5–0.6 ms before its replica runs
again.  Both cluster facades route by one notion, ``available_delegates()``
(the replicas that take submissions), and a submission that still reaches a
server that does not take it is answered as an abort with a reason instead
of raising out of ``sim.run``.

The schedule: 3 servers, 100 items, group-safe over Multi-Paxos with the
heartbeat detector (10 ms period, 50 ms timeout), seed 19, 30 tps; the
coordinator is crashed at 500 ms and recovered at 10 500 ms, with 1 000 ms
more load and then 10 000 ms of quiet.  Before the fix an arrival of
10 500.27 ms was routed to the recovering s1: the single-group run raised
``server s1 is not running``, and the partitioned pool counted it as
rejected although two servers of its group were up.
"""

from __future__ import annotations

from repro.partition import PartitionedCluster, PartitionedOpenLoopClients
from repro.replication import ReplicatedDatabaseCluster
from repro.workload import OpenLoopClientPool, SimulationParameters

CRASH_AT_MS, RECOVER_AT_MS = 500.0, 10_500.0


def _params():
    return SimulationParameters.small(server_count=3, item_count=100) \
        .with_overrides(broadcast_engine="multi-paxos",
                        failure_detector_mode="heartbeat",
                        heartbeat_period=10.0, heartbeat_timeout=50.0)


def _outage(cluster, clients, group, crash, recover):
    """Crash ``group``'s coordinator, recover it under load, then idle."""
    cluster.start()
    clients.start()
    cluster.run(until=CRASH_AT_MS)
    leader = group.gcs.endpoint(group.server_names()[-1]).coordinator()
    crash(leader)
    cluster.run(until=RECOVER_AT_MS)
    recover(leader)
    # Inside the recovery window the node is up and the replica is not.
    assert group.node(leader).is_up
    assert leader not in group.available_delegates()
    cluster.run(until=RECOVER_AT_MS + 1_000.0)
    assert leader in group.available_delegates()
    clients.load_tps = 1e-12
    cluster.run(until=RECOVER_AT_MS + 11_000.0)


def test_single_group_run_survives_an_arrival_in_the_recovery_window():
    cluster = ReplicatedDatabaseCluster("group-safe", params=_params(),
                                        seed=19)
    clients = OpenLoopClientPool(cluster, load_tps=30.0)
    _outage(cluster, clients, cluster, cluster.crash_server,
            cluster.recover_server)
    assert clients.submitted_count == len(clients.results) == 351


def test_partitioned_run_rejects_nothing_while_a_member_recovers():
    cluster = PartitionedCluster(
        "group-safe", params=_params().with_overrides(partition_count=1),
        seed=19)
    clients = PartitionedOpenLoopClients(cluster, load_tps=30.0)
    _outage(cluster, clients, cluster.groups[0],
            lambda name: cluster.crash_server(0, name),
            lambda name: cluster.recover_server(0, name))
    assert clients.rejected_count == 0
    assert clients.submitted_count == len(clients.results) == 351


def test_a_submission_to_a_recovering_server_is_answered_as_an_abort():
    params = SimulationParameters.small(server_count=3, item_count=100)
    cluster = ReplicatedDatabaseCluster("group-safe", params=params, seed=1)
    cluster.start()
    cluster.crash_server("s1")
    cluster.run(until=10.0)
    cluster.recover_server("s1")
    assert cluster.available_delegates() == ["s2", "s3"]
    assert cluster.choose_delegate(0) == "s2"
    answer = cluster.submit(cluster.workload.next_program(), server="s1")
    assert answer.triggered
    result = answer.value
    assert not result.committed
    assert result.abort_reason == "delegate-unavailable"
    assert result.delegate == "s1"
    assert result.response_time == 0.0
