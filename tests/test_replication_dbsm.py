"""Tests of the database state machine techniques (group-safe, group-1-safe, 2-safe)."""

from __future__ import annotations

import pytest

from repro.core import SafetyLevel, classify_result
from tests.conftest import build_cluster, make_program


def run_one(cluster, program, server="s1", until=3_000.0):
    waiter = cluster.run_transaction(program, server=server)
    cluster.run(until=cluster.sim.now + until)
    assert waiter.triggered, "transaction never terminated"
    return waiter.value


@pytest.mark.parametrize("technique", ["group-safe", "group-1-safe", "2-safe"])
def test_update_transaction_commits_on_every_server(technique):
    cluster = build_cluster(technique)
    program = cluster.workload.update_only_program(write_count=4)
    result = run_one(cluster, program)
    assert result.committed
    cluster.run(until=cluster.sim.now + 1_000.0)
    assert cluster.committed_everywhere(result.txn_id)
    # Every copy converged to the same values for the written items.
    for key in program.write_keys:
        values = {cluster.database(name).value_of(key)
                  for name in cluster.server_names()}
        assert len(values) == 1


def test_group_safe_notification_guarantee_flags():
    cluster = build_cluster("group-safe")
    result = run_one(cluster, cluster.workload.update_only_program(3))
    assert result.delivered_to_group
    assert not result.logged_on_delegate
    assert classify_result(result) is SafetyLevel.GROUP_SAFE


def test_group_one_safe_notification_guarantee_flags():
    cluster = build_cluster("group-1-safe")
    result = run_one(cluster, cluster.workload.update_only_program(3))
    assert result.delivered_to_group
    assert result.logged_on_delegate
    assert classify_result(result) is SafetyLevel.GROUP_ONE_SAFE
    # Group-1-safe answered only after the delegate's commit record was durable.
    assert cluster.database("s1").wal.is_logged(result.txn_id)


def test_two_safe_logs_before_answering_and_uses_e2e_broadcast():
    cluster = build_cluster("2-safe")
    result = run_one(cluster, cluster.workload.update_only_program(3))
    assert result.logged_on_delegate
    assert cluster.gcs.end_to_end
    endpoint = cluster.gcs.endpoint("s1")
    assert endpoint.journal.entries()[0].acknowledged


def test_group_safe_responds_before_delegate_logs():
    cluster = build_cluster("group-safe")
    result = run_one(cluster, cluster.workload.update_only_program(3))
    # The response time of group-safe excludes the synchronous log flush, so
    # it must be well below one disk write plus the read phase of a
    # write-only transaction (which has no reads at all).
    assert result.response_time < 4.0
    cluster.run(until=cluster.sim.now + 2_000.0)
    # Eventually the commit record still reaches stable storage (group commit).
    assert cluster.database("s1").wal.is_logged(result.txn_id)


def test_group_one_safe_response_slower_than_group_safe():
    program_writes = 5
    fast = build_cluster("group-safe", seed=3)
    slow = build_cluster("group-1-safe", seed=3)
    fast_result = run_one(fast, fast.workload.update_only_program(program_writes))
    slow_result = run_one(slow, slow.workload.update_only_program(program_writes))
    assert fast_result.response_time < slow_result.response_time


def test_read_only_transaction_commits_locally_without_broadcast():
    cluster = build_cluster("group-safe")
    program = make_program([("r", "item-1"), ("r", "item-2")])
    result = run_one(cluster, program)
    assert result.committed
    assert not result.delivered_to_group
    # Only the delegate decided it; the others never heard of it.
    assert cluster.committed_anywhere(result.txn_id) == ["s1"]
    assert cluster.gcs.endpoint("s1").broadcast_count == 0


def test_certification_aborts_conflicting_transaction_everywhere():
    cluster = build_cluster("group-safe")
    # Freeze processing on every server so both transactions execute their
    # read phase against the same (initial) versions before either write set
    # is applied anywhere — a genuine concurrent conflict.  The one ordered
    # second by the atomic broadcast must then abort on every server.
    for name in cluster.server_names():
        cluster.replica(name).processing_gate.close()
    program_a = make_program([("r", "item-5"), ("w", "item-5", "a")])
    program_b = make_program([("r", "item-5"), ("w", "item-5", "b")])
    waiter_a = cluster.run_transaction(program_a, server="s1")
    waiter_b = cluster.run_transaction(program_b, server="s2")
    cluster.run(until=200.0)
    for name in cluster.server_names():
        cluster.replica(name).processing_gate.open()
    cluster.run(until=5_000.0)
    results = sorted([waiter_a.value, waiter_b.value],
                     key=lambda result: result.committed, reverse=True)
    assert results[0].committed and not results[1].committed
    assert results[1].abort_reason == "certification"
    loser = results[1].txn_id
    for name in cluster.server_names():
        assert cluster.database(name).testable.outcome(loser) == "abort"
    # The committed value is the winner's value on every copy.
    values = {cluster.database(name).value_of("item-5")
              for name in cluster.server_names()}
    assert len(values) == 1


def test_non_conflicting_concurrent_transactions_both_commit():
    cluster = build_cluster("group-safe")
    program_a = make_program([("r", "item-10"), ("w", "item-10", "a")])
    program_b = make_program([("r", "item-20"), ("w", "item-20", "b")])
    waiter_a = cluster.run_transaction(program_a, server="s1")
    waiter_b = cluster.run_transaction(program_b, server="s2")
    cluster.run(until=5_000.0)
    assert waiter_a.value.committed and waiter_b.value.committed


def test_delegate_crash_after_confirmation_does_not_lose_group_safe_txn():
    cluster = build_cluster("group-safe")
    result = run_one(cluster, cluster.workload.update_only_program(3))
    cluster.crash_server("s1")
    cluster.run(until=cluster.sim.now + 2_000.0)
    survivors = [name for name in cluster.server_names() if name != "s1"]
    assert all(cluster.database(name).testable.has_committed(result.txn_id)
               for name in survivors)


def test_recovered_server_catches_up_after_minority_crash_two_safe():
    cluster = build_cluster("2-safe")
    first = run_one(cluster, cluster.workload.update_only_program(3))
    cluster.crash_server("s3")
    cluster.run(until=cluster.sim.now + 100.0)
    second = run_one(cluster, cluster.workload.update_only_program(3))
    assert first.committed and second.committed
    cluster.recover_server("s3")
    cluster.run(until=cluster.sim.now + 3_000.0)
    assert cluster.database("s3").testable.has_committed(second.txn_id)
