"""Atomicity of cross-partition transactions (the 2PC acceptance property).

Every transaction that spans several partitions must either commit on all
involved partitions or abort on all of them — regardless of the safety
technique each partition's replica group runs.
"""

from __future__ import annotations

import pytest

from repro.db.transaction import WriteSetMessage
from repro.partition import (ABORT_VALIDATION, CrossPartitionOutcome,
                             PartitionedCluster, PartitionedOpenLoopClients)
from repro.replication.results import TransactionResult
from repro.workload import SimulationParameters
from tests.conftest import make_program


def build_cluster(technique="group-safe", partitions=2, items=100, seed=7,
                  techniques=None, **overrides):
    """A started partitioned cluster with range sharding (key control)."""
    params = SimulationParameters.small(server_count=3, item_count=items)
    if overrides:
        params = params.with_overrides(**overrides)
    cluster = PartitionedCluster(technique, params=params, seed=seed,
                                 partition_count=partitions, strategy="range",
                                 techniques=techniques)
    cluster.start()
    return cluster


def value_installed_somewhere(cluster, marker):
    """True if any server of any partition holds an item with ``marker``."""
    for group in cluster.groups:
        for name in group.server_names():
            items = group.database(name).items
            for key in items.keys():
                if items.get(key).value == marker:
                    return True
    return False


# ---------------------------------------------------------------- commit path
def test_cross_partition_commit_lands_on_all_partitions():
    cluster = build_cluster()
    # item-10 lives on partition 0, item-90 on partition 1 (range sharding).
    program = make_program([("r", "item-10"), ("w", "item-10", "both-0"),
                            ("r", "item-90"), ("w", "item-90", "both-1")])
    waiter = cluster.run_transaction(program)
    cluster.run(until=5_000)

    outcome = waiter.value
    assert isinstance(outcome, CrossPartitionOutcome)
    assert outcome.committed
    assert outcome.partitions == (0, 1)
    for branch in outcome.branches:
        assert branch.committed and branch.txn_id is not None
        assert cluster.group(branch.partition_id).committed_everywhere(
            branch.txn_id)
    # The written values are installed on every server of both groups.
    for group, key, value in ((cluster.group(0), "item-10", "both-0"),
                              (cluster.group(1), "item-90", "both-1")):
        for name in group.server_names():
            assert group.database(name).value_of(key) == value


def test_read_only_cross_partition_transaction_commits_without_writes():
    cluster = build_cluster()
    program = make_program([("r", "item-10"), ("r", "item-90")])
    waiter = cluster.run_transaction(program)
    cluster.run(until=2_000)
    outcome = waiter.value
    assert outcome.committed
    assert all(branch.txn_id is None for branch in outcome.branches)


def test_single_partition_program_takes_the_fast_path():
    cluster = build_cluster()
    program = make_program([("r", "item-10"), ("w", "item-11", "v")])
    waiter = cluster.run_transaction(program)
    cluster.run(until=2_000)
    assert isinstance(waiter.value, TransactionResult)
    assert waiter.value.committed
    assert cluster.router.single_partition_count == 1
    assert len(cluster.cross_partition_outcomes()) == 0


# ---------------------------------------------------------------- abort path
def test_stale_prepare_aborts_on_every_partition():
    # Deterministic read times make the prepare window predictable: the
    # branch on partition 0 is a single 5 ms read, the branch on partition 1
    # reads ten items (>= 50 ms), so bumping the partition-0 item at t=20ms
    # lands squarely between the fast branch's read and vote collection.
    cluster = build_cluster(read_time_min=5.0, read_time_max=5.0,
                            buffer_hit_ratio=0.0)
    operations = [("r", "item-10"), ("w", "item-10", "poison-0")]
    operations += [("r", f"item-{60 + index}") for index in range(10)]
    operations += [("w", "item-90", "poison-1")]
    waiter = cluster.run_transaction(make_program(operations))
    cluster.run(until=20.0)

    # A concurrent writer overwrites item-10 on partition 0 while the other
    # branch is still reading: the recorded version is now stale.
    intruder = WriteSetMessage(txn_id="intruder", delegate="p0.s1",
                               read_versions={}, write_values={"item-10": "i"},
                               program_id=10_000)
    for name in cluster.group(0).server_names():
        cluster.group(0).database(name).install_writes(intruder)
    cluster.run(until=5_000)

    outcome = waiter.value
    assert not outcome.committed
    assert outcome.abort_reason == ABORT_VALIDATION
    assert not outcome.in_doubt
    # All-or-nothing: neither partition installed any of the writes.
    assert all(branch.txn_id is None for branch in outcome.branches)
    assert not value_installed_somewhere(cluster, "poison-0")
    assert not value_installed_somewhere(cluster, "poison-1")


def test_home_delegate_crash_during_decision_flush_aborts_cleanly():
    # Full buffer hits make both prepares finish within ~1 ms, so the crash
    # lands under the coordinator's decision flush on the home delegate; it
    # must abort the transaction, not tear down the simulation.
    cluster = build_cluster(buffer_hit_ratio=1.0,
                            write_time_min=5.0, write_time_max=5.0)
    program = make_program([("r", "item-10"), ("w", "item-10", "poison-0"),
                            ("w", "item-90", "poison-1")])
    waiter = cluster.run_transaction(program)
    cluster.run(until=2.0)
    cluster.crash_server(0, "p0.s1")
    cluster.run(until=5_000)
    outcome = waiter.value
    assert not outcome.committed
    assert not value_installed_somewhere(cluster, "poison-0")
    assert not value_installed_somewhere(cluster, "poison-1")


def test_queued_decision_flushes_never_hang_after_home_delegate_crash():
    # Two coordinators contend for the home delegate's disk: when the crash
    # lands, one flush is in service and the other is still queued.  A
    # queued request is cancelled *silently* (no exception reaches the
    # sim-spawned coordinator), so only the bounded decision wait keeps the
    # clients from hanging forever.
    cluster = build_cluster(buffer_hit_ratio=1.0,
                            write_time_min=5.0, write_time_max=5.0)
    waiters = [
        cluster.run_transaction(make_program(
            [("w", "item-10", f"q{index}-0"), ("w", "item-90", f"q{index}-1")]))
        for index in range(2)]
    cluster.run(until=0.5)
    cluster.crash_server(0, "p0.s1")
    cluster.run(until=10_000)
    for index, waiter in enumerate(waiters):
        assert waiter.triggered, f"transaction {index} hung"
        outcome = waiter.value
        assert not outcome.committed
        assert not value_installed_somewhere(cluster, f"q{index}-0")
        assert not value_installed_somewhere(cluster, f"q{index}-1")


def test_decided_branch_blocks_through_outage_and_commits_on_recovery():
    # The global decision is logged, partition 0 commits its branch, then
    # partition 1 (lazy, so recovery is purely local) crashes wholesale.
    # The branch must block — not be dropped, not report a false abort — and
    # install once the group comes back.
    cluster = build_cluster(techniques=["group-safe", "1-safe"],
                            buffer_hit_ratio=0.0,
                            read_time_min=5.0, read_time_max=5.0,
                            write_time_min=5.0, write_time_max=5.0)
    program = make_program([("w", "item-10", "late-0"),
                            ("w", "item-90", "late-1")])
    waiter = cluster.run_transaction(program)
    cluster.run(until=8.0)            # decision flushed at t=5ms; phase 2 live
    cluster.crash_partition(1)
    cluster.run(until=3_000)
    assert not waiter.triggered       # blocked, never a partial abort
    assert cluster.coordinator.in_doubt_branches == 1
    for name in cluster.group(1).server_names():
        cluster.recover_server(1, name)
    cluster.run(until=10_000)
    outcome = waiter.value
    assert outcome.committed
    assert cluster.coordinator.in_doubt_branches == 0
    for branch in outcome.branches:
        assert cluster.group(branch.partition_id).committed_anywhere(
            branch.txn_id)


def test_unavailable_partition_aborts_the_whole_transaction():
    cluster = build_cluster()
    cluster.crash_partition(1)
    program = make_program([("w", "item-10", "lost-0"),
                            ("w", "item-90", "lost-1")])
    waiter = cluster.run_transaction(program)
    cluster.run(until=3_000)
    outcome = waiter.value
    assert not outcome.committed
    assert outcome.abort_reason is not None
    assert not value_installed_somewhere(cluster, "lost-0")
    assert not value_installed_somewhere(cluster, "lost-1")


def test_decision_records_are_not_phantom_commits():
    cluster = build_cluster()
    program = make_program([("w", "item-10", "d0"), ("w", "item-90", "d1")])
    waiter = cluster.run_transaction(program)
    cluster.run(until=5_000)
    assert waiter.value.committed
    # The 2PC decision went to some p0 WAL, but it must never surface as a
    # committed transaction (recovery redo / audit / committed_transactions).
    all_logged = [txn_id
                  for name in cluster.group(0).server_names()
                  for txn_id in cluster.group(0).database(name)
                  .wal.committed_transactions()]
    assert not any(txn_id.startswith("xp-") for txn_id in all_logged)


# ---------------------------------------------------------------- bulk property
@pytest.mark.parametrize("technique", ["group-safe", "group-1-safe", "1-safe"])
def test_bulk_workload_is_all_or_nothing(technique):
    cluster = build_cluster(technique=technique, items=120, seed=13,
                            cross_partition_probability=0.5)
    clients = PartitionedOpenLoopClients(cluster, load_tps=25.0)
    clients.start()
    cluster.run(until=6_000)
    # Stop injecting new arrivals and let in-flight work settle: freeze time
    # advancement by running a bounded settle window instead.
    cluster.run(until=9_000)

    outcomes = cluster.cross_partition_outcomes()
    assert len(outcomes) > 10
    committed = [outcome for outcome in outcomes if outcome.committed]
    aborted = [outcome for outcome in outcomes if not outcome.committed]
    assert committed, "expected at least one cross-partition commit"
    for outcome in committed:
        for branch in outcome.branches:
            assert branch.committed
            if branch.txn_id is None:
                continue  # read-only branch
            group = cluster.group(branch.partition_id)
            if technique == "1-safe":
                # Lazy durability is delegate-local; propagation is eventual.
                assert group.committed_anywhere(branch.txn_id)
            else:
                assert group.committed_everywhere(branch.txn_id)
    for outcome in aborted:
        assert not outcome.in_doubt
        # An aborted transaction never submitted any branch anywhere.
        assert all(branch.txn_id is None for branch in outcome.branches)
