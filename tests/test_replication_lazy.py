"""Tests of lazy (1-safe) and 0-safe replication."""

from __future__ import annotations

import pytest

from repro.core import SafetyLevel, classify_result
from tests.conftest import build_cluster, make_program


def run_one(cluster, program, server="s1", until=3_000.0):
    waiter = cluster.run_transaction(program, server=server)
    cluster.run(until=cluster.sim.now + until)
    assert waiter.triggered
    return waiter.value


def test_lazy_commits_locally_and_flags_one_safety():
    cluster = build_cluster("1-safe")
    result = run_one(cluster, cluster.workload.update_only_program(3))
    assert result.committed
    assert result.logged_on_delegate
    assert not result.delivered_to_group
    assert classify_result(result) is SafetyLevel.ONE_SAFE
    assert cluster.database("s1").wal.is_logged(result.txn_id)


def test_zero_safe_answers_before_anything_is_durable():
    cluster = build_cluster("0-safe")
    result = run_one(cluster, cluster.workload.update_only_program(3))
    assert result.committed
    assert not result.logged_on_delegate
    assert classify_result(result) is SafetyLevel.ZERO_SAFE


def test_zero_safe_responds_faster_than_one_safe():
    lazy = build_cluster("1-safe", seed=9)
    zero = build_cluster("0-safe", seed=9)
    lazy_result = run_one(lazy, lazy.workload.update_only_program(4))
    zero_result = run_one(zero, zero.workload.update_only_program(4))
    assert zero_result.response_time < lazy_result.response_time


def test_propagation_applies_updates_on_the_other_replicas():
    cluster = build_cluster("1-safe")
    program = make_program([("w", "item-7", "propagated")])
    result = run_one(cluster, program, until=5_000.0)
    # After at least one propagation interval, every replica has the value
    # and records the transaction as committed.
    assert cluster.committed_anywhere(result.txn_id) == cluster.server_names()
    for name in cluster.server_names():
        assert cluster.database(name).value_of("item-7") == "propagated"


def test_propagation_happens_outside_the_response_time():
    cluster = build_cluster("1-safe")
    result = run_one(cluster, cluster.workload.update_only_program(3),
                     until=100.0)
    # The client already has its answer ...
    assert result.committed
    # ... but the other replicas have not applied anything yet (the
    # propagation interval of 250 ms has not elapsed).
    others = [name for name in cluster.server_names() if name != "s1"]
    assert not any(cluster.database(name).wal.has_committed(result.txn_id)
                   for name in others)


def test_lazy_read_only_transaction_commits():
    cluster = build_cluster("1-safe")
    result = run_one(cluster, make_program([("r", "item-1"), ("r", "item-2")]))
    assert result.committed


def test_lazy_divergence_possible_with_conflicting_concurrent_updates():
    """The Sect. 7 hazard: lazy replication has no conflict handling."""
    cluster = build_cluster("1-safe")
    program_a = make_program([("w", "item-9", "from-s1")])
    program_b = make_program([("w", "item-9", "from-s2")])
    waiter_a = cluster.run_transaction(program_a, server="s1")
    waiter_b = cluster.run_transaction(program_b, server="s2")
    cluster.run(until=5_000.0)
    # Both clients were told "committed" — lazy replication accepted both.
    assert waiter_a.value.committed and waiter_b.value.committed
    # Whether the copies converged depends on the (last-writer-wins) apply
    # order; the essential contrast with certification is that *both*
    # transactions committed and neither client was told about the conflict.
    outcomes = {cluster.database(name).value_of("item-9")
                for name in cluster.server_names()}
    assert outcomes <= {"from-s1", "from-s2"}


def test_group_safe_prevents_the_lazy_anomaly():
    cluster = build_cluster("group-safe")
    # Same concurrent conflicting pattern as the lazy test above: freeze the
    # processing stage so both read phases observe the initial versions.
    for name in cluster.server_names():
        cluster.replica(name).processing_gate.close()
    program_a = make_program([("r", "item-9"), ("w", "item-9", "from-s1")])
    program_b = make_program([("r", "item-9"), ("w", "item-9", "from-s2")])
    waiter_a = cluster.run_transaction(program_a, server="s1")
    waiter_b = cluster.run_transaction(program_b, server="s2")
    cluster.run(until=200.0)
    for name in cluster.server_names():
        cluster.replica(name).processing_gate.open()
    cluster.run(until=5_000.0)
    outcomes = sorted([waiter_a.value.committed, waiter_b.value.committed])
    assert outcomes == [False, True]      # certification aborted one of them


def test_lazy_recovery_redoes_only_local_durable_state():
    cluster = build_cluster("1-safe")
    result = run_one(cluster, cluster.workload.update_only_program(3),
                     until=5_000.0)
    cluster.crash_server("s2")
    cluster.run(until=cluster.sim.now + 50.0)
    cluster.recover_server("s2")
    cluster.run(until=cluster.sim.now + 2_000.0)
    assert cluster.database("s2").wal.has_committed(result.txn_id)


def test_lazy_delegate_crash_before_propagation_loses_transaction():
    cluster = build_cluster("1-safe")
    result = run_one(cluster, cluster.workload.update_only_program(3),
                     until=50.0)
    assert result.committed
    cluster.crash_server("s1")
    cluster.run(until=cluster.sim.now + 5_000.0)
    others = [name for name in cluster.server_names() if name != "s1"]
    assert not any(cluster.database(name).wal.has_committed(result.txn_id)
                   for name in others)
