"""Tests of the execution audit and durability checks."""

from __future__ import annotations

import pytest

from repro.core import (SafetyAudit, SafetyLevel, classify_results,
                        transaction_fate)
from repro.core.audit import ConfirmedWrite, FindingKind, audit_writes
from repro.db.operations import TransactionProgram
from repro.replication import TransactionResult
from tests.conftest import build_cluster


def run_one(cluster, program, server="s1", until=3_000.0):
    waiter = cluster.run_transaction(program, server=server)
    cluster.run(until=cluster.sim.now + until)
    return waiter.value


def make_result(**overrides):
    defaults = dict(txn_id="t", committed=True, delegate="s1",
                    submitted_at=0.0, responded_at=10.0)
    defaults.update(overrides)
    return TransactionResult(**defaults)


def test_classify_results_histogram_counts_only_commits():
    results = [
        make_result(txn_id="a", delivered_to_group=True),
        make_result(txn_id="b", delivered_to_group=True, logged_on_delegate=True),
        make_result(txn_id="c", committed=False),
        make_result(txn_id="d", logged_on_delegate=True),
    ]
    histogram = classify_results(results)
    assert histogram == {SafetyLevel.GROUP_SAFE: 1,
                         SafetyLevel.GROUP_ONE_SAFE: 1,
                         SafetyLevel.ONE_SAFE: 1}
    assert classify_results([make_result(committed=False)]) == {}


def test_transaction_fate_reflects_cluster_state():
    cluster = build_cluster("group-safe")
    result = run_one(cluster, cluster.workload.update_only_program(3))
    fate = transaction_fate(cluster, result.txn_id)
    assert set(fate.committed_on) == {"s1", "s2", "s3"}
    assert fate.surviving_servers == ["s1", "s2", "s3"]
    assert not fate.is_lost


def test_transaction_fate_detects_loss_after_catastrophe():
    cluster = build_cluster("group-safe")
    for name in ("s2", "s3"):
        cluster.replica(name).processing_gate.close()
    result = run_one(cluster, cluster.workload.update_only_program(3),
                     until=200.0)
    cluster.crash_all()
    cluster.run(until=cluster.sim.now + 10.0)
    for name in ("s2", "s3"):
        cluster.replica(name).processing_gate.open()
        cluster.recover_server(name)
    cluster.run(until=cluster.sim.now + 2_000.0)
    fate = transaction_fate(cluster, result.txn_id)
    assert fate.is_lost
    assert "s1" not in fate.surviving_servers


def test_safety_audit_report_on_healthy_run():
    cluster = build_cluster("group-safe")
    results = [run_one(cluster, cluster.workload.update_only_program(2))
               for _ in range(3)]
    cluster.run(until=cluster.sim.now + 2_000.0)
    audit = SafetyAudit(cluster)
    report = audit.report(results)
    assert report.confirmed_transactions == 3
    assert not report.transaction_lost
    assert not report.divergent_items
    assert report.serializable
    assert report.guarantee_histogram.get(SafetyLevel.GROUP_SAFE) == 3


def test_safety_audit_flags_divergence_between_replicas():
    cluster = build_cluster("group-safe")
    # Manufacture divergence directly in the copies (bypassing the protocol).
    cluster.database("s1").items.get("item-1").install("rogue", "t-x", 99)
    audit = SafetyAudit(cluster)
    assert "item-1" in audit.divergent_items()


def test_safety_audit_divergence_ignores_crashed_servers():
    cluster = build_cluster("group-safe")
    cluster.database("s3").items.get("item-1").install("rogue", "t-x", 99)
    cluster.crash_server("s3")
    audit = SafetyAudit(cluster)
    assert audit.divergent_items() == []


# ------------------------------------------------ the one commit-integrity audit
# Hand-built evidence: each finding kind from the smallest state that shows
# it, instead of only through a full matrix run.
def confirmed_write(cluster, key="item-5", group=0):
    values = {key: f"audited:{key}"}
    result = run_one(cluster, TransactionProgram.of_writes(values))
    assert result.committed
    return ConfirmedWrite(result.txn_id, group, values)


def kinds(findings):
    return [finding.kind for finding in findings]


def test_audit_of_a_clean_run_finds_nothing():
    cluster = build_cluster("group-safe")
    write = confirmed_write(cluster)
    assert audit_writes(cluster, [write],
                        caught_up=cluster.server_names()) == []
    # Transaction-level evidence (no values) audits the commit records instead.
    assert audit_writes([cluster], [ConfirmedWrite(write.txn_id)],
                        caught_up=cluster.server_names()) == []


def test_audit_holds_a_wiped_confirmed_transaction_as_lost():
    cluster = build_cluster("group-safe")
    for name in ("s2", "s3"):
        cluster.replica(name).processing_gate.close()
    waiter = cluster.run_transaction(
        cluster.workload.update_only_program(3), server="s1")
    cluster.run(until=cluster.sim.now + 200.0)
    assert waiter.value.committed
    cluster.crash_all()
    cluster.run(until=cluster.sim.now + 10.0)
    for name in ("s2", "s3"):
        cluster.replica(name).processing_gate.open()
        cluster.recover_server(name)
    cluster.run(until=cluster.sim.now + 2_000.0)
    findings = audit_writes(cluster, [ConfirmedWrite(waiter.value.txn_id)])
    assert kinds(findings) == [FindingKind.LOST]
    assert str(findings[0]).startswith(
        f"lost commit: {waiter.value.txn_id} is gone from every surviving")
    assert SafetyAudit(cluster).report([waiter.value]).lost_transactions == \
        [waiter.value.txn_id]


def test_audit_holds_one_id_committed_on_two_groups_as_duplicated():
    groups = [build_cluster("group-safe"), build_cluster("group-safe")]
    write = confirmed_write(groups[0])
    assert audit_writes(groups, [write]) == []
    groups[1].database("s2").wal.append_commit(write.txn_id, {})
    findings = audit_writes(groups, [write])
    assert kinds(findings) == [FindingKind.DUPLICATED]
    assert "[0, 1]" in findings[0].detail


def test_audit_holds_a_value_the_new_owner_does_not_serve_as_lost():
    groups = [build_cluster("group-safe"), build_cluster("group-safe")]
    write = confirmed_write(groups[0])
    (key, value), = write.values.items()
    # Ownership moved to group 1, which never received the value.
    findings = audit_writes(groups, [write], owner_of=lambda _key: 1)
    assert kinds(findings) == [FindingKind.LOST]
    assert "moved to group 1" in findings[0].detail
    # One serving replica of the new owner is enough — unless it is down.
    groups[1].database("s3").items.get(key).install(value, "copy", 1)
    assert audit_writes(groups, [write], owner_of=lambda _key: 1) == []
    groups[1].crash_server("s3")
    assert kinds(audit_writes(groups, [write], owner_of=lambda _key: 1)) == \
        [FindingKind.LOST]


def test_audit_holds_a_replica_serving_another_value_as_diverged():
    cluster = build_cluster("group-safe")
    write = confirmed_write(cluster)
    key = next(iter(write.values))
    cluster.database("s3").items.get(key).install("rogue", "t-x", 99)
    # Crash patterns leave replicas behind: not held unless caught up.
    assert audit_writes(cluster, [write]) == []
    findings = audit_writes(cluster, [write],
                            caught_up=cluster.server_names())
    assert kinds(findings) == [FindingKind.DIVERGED]
    assert audit_writes(cluster, [write], caught_up=["s1", "s2"]) == []


def test_audit_holds_an_agreed_but_wrong_value_as_unserved():
    cluster = build_cluster("group-safe")
    write = confirmed_write(cluster)
    key = next(iter(write.values))
    for name in cluster.server_names():
        cluster.database(name).items.get(key).install("rogue", "t-x", 99)
    findings = audit_writes(cluster, [write],
                            caught_up=cluster.server_names())
    assert kinds(findings) == [FindingKind.UNSERVED]
    # Without values, a caught-up server missing the commit record.
    other = build_cluster("group-safe")
    other.database("s1").wal.append_commit("t-9", {})
    findings = audit_writes(other, [ConfirmedWrite("t-9")],
                            caught_up=["s1", "s2"])
    assert kinds(findings) == [FindingKind.UNSERVED]
    assert "['s2']" in findings[0].detail
