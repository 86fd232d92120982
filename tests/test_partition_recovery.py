"""2PC decision replay on recovery.

The cross-partition coordinator is co-located with the home delegate its
decision record is force-logged on.  These tests cover the recovery
contract: a home-delegate crash after the decision is durable leaves the
transaction decided-but-unfinished (clients block, branches stay in doubt);
recovering the delegate replays the DECISION records and drives every
remaining branch to commit — no decided write is ever dropped, and a
straggler decision whose client already saw an abort is reconciled as an
orphan instead of resurrecting the transaction.
"""

from __future__ import annotations

from repro.db.operations import make_program
from repro.db.wal import LogRecord
from repro.partition import (CrossPartitionOutcome, PartitionedCluster)
from repro.workload import SimulationParameters


def build(partitions=2, technique="group-safe", seed=7, items=100,
          techniques=None, **overrides):
    params = SimulationParameters.small(server_count=3, item_count=items)
    if overrides:
        params = params.with_overrides(**overrides)
    cluster = PartitionedCluster(technique, params=params, seed=seed,
                                 partition_count=partitions, strategy="range",
                                 techniques=techniques)
    cluster.start()
    return cluster


def run_until_decided(cluster, limit=2_000.0, step=0.5):
    """Advance the sim until a 2PC decision is durable (registered)."""
    while not cluster.coordinator.decided_pending:
        assert cluster.sim.now < limit, "no decision was ever logged"
        cluster.run(until=cluster.sim.now + step)


def test_home_delegate_crash_after_decision_blocks_then_replays():
    cluster = build(buffer_hit_ratio=1.0,
                    write_time_min=5.0, write_time_max=5.0)
    program = make_program([("w", "item-10", "replay-0"),
                            ("w", "item-90", "replay-1")])
    waiter = cluster.run_transaction(program)
    run_until_decided(cluster)

    # The coordinator dies with its home delegate: phase 2 halts, the
    # client blocks on a decided transaction — classic 2PC blocking.
    cluster.crash_server(0, "p0.s1")
    cluster.run(until=3_000)
    assert not waiter.triggered
    assert cluster.coordinator.decided_pending

    # Recovery replays the durable DECISION record and finishes phase 2.
    cluster.recover_server(0, "p0.s1")
    cluster.run(until=15_000)
    outcome = waiter.value
    assert isinstance(outcome, CrossPartitionOutcome)
    assert outcome.committed
    assert not cluster.coordinator.decided_pending
    assert cluster.coordinator.in_doubt_branches == 0
    for branch in outcome.branches:
        assert branch.committed
        assert cluster.group(branch.partition_id).committed_anywhere(
            branch.txn_id)
    # The decided values landed on both partitions despite the crash.
    assert any(cluster.group(0).database(name).value_of("item-10")
               == "replay-0" for name in cluster.group(0).server_names())
    assert any(cluster.group(1).database(name).value_of("item-90")
               == "replay-1" for name in cluster.group(1).server_names())
    # The replay and the (revived) original coordinator must not both
    # record the outcome: exactly one entry, counted exactly once.
    recorded = [entry for entry in cluster.cross_partition_outcomes()
                if entry.xid == outcome.xid]
    assert len(recorded) == 1
    assert cluster.coordinator.committed_count == 1


def test_replay_resolves_branches_left_in_doubt_by_a_group_outage():
    # Decision durable, then BOTH the home delegate and the whole remote
    # group crash: the branch is decided and in doubt, and the coordinator
    # that would have retried it is dead.  Replay after recovery must still
    # install everything.
    cluster = build(techniques=["group-safe", "1-safe"],
                    buffer_hit_ratio=1.0,
                    write_time_min=5.0, write_time_max=5.0)
    program = make_program([("w", "item-10", "doubt-0"),
                            ("w", "item-90", "doubt-1")])
    waiter = cluster.run_transaction(program)
    run_until_decided(cluster)
    cluster.crash_server(0, "p0.s1")
    cluster.crash_partition(1)
    cluster.run(until=3_000)
    assert not waiter.triggered

    for name in cluster.group(1).server_names():
        cluster.recover_server(1, name)
    cluster.recover_server(0, "p0.s1")
    cluster.run(until=20_000)
    outcome = waiter.value
    assert outcome.committed
    assert cluster.coordinator.in_doubt_branches == 0
    assert cluster.group(1).committed_anywhere(outcome.branch(1).txn_id)


def test_orphan_decision_is_reconciled_with_the_client_visible_abort():
    cluster = build()
    # Synthesise the straggler: a durable DECISION record for a transaction
    # the coordinator reported aborted (the flush outran the bounded wait).
    database = cluster.group(0).database("p0.s1")
    cluster.sim.spawn(database.wal.force(LogRecord.decision("xp-straggler")),
                      name="test.flush")
    cluster.run(until=100)
    assert any(record.txn_id == "xp-straggler"
               for record in database.wal.stable_records())
    cluster.coordinator.outcomes.append(CrossPartitionOutcome(
        xid="xp-straggler", committed=False, submitted_at=0.0,
        responded_at=1.0, partitions=(0, 1),
        abort_reason="xpartition-unavailable"))

    cluster.crash_server(0, "p0.s1")
    cluster.run(until=200)
    cluster.recover_server(0, "p0.s1")
    cluster.run(until=5_000)
    assert cluster.coordinator.orphan_decisions == 1
    # Replaying again does not double-count.
    cluster.coordinator.replay_decisions(0, "p0.s1")
    assert cluster.coordinator.orphan_decisions == 1


def test_recover_server_still_returns_a_process_for_plain_recovery():
    cluster = build()
    cluster.crash_server(0, "p0.s1")
    cluster.run(until=500)
    process = cluster.recover_server(0, "p0.s1")
    cluster.run(until=5_000)
    assert process.triggered
    assert "p0.s1" in cluster.group(0).up_servers()
