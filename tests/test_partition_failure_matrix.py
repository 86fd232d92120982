"""Partitioned failure-injection matrix: failpoints, scenarios, entries.

The deterministic crash-injection machinery (failpoints keyed to WAL / 2PC /
migration phases, and the crash and recovery instants it logs on the
``faults`` track of the span tracer) lives on
:class:`~repro.partition.cluster.PartitionedCluster`; the scenarios and the
matrix itself live in :mod:`repro.experiments.partition_failure_matrix`.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import demonstrated, violations
from repro.experiments.partition_failure_matrix import (
    PARTITIONED_CRASH_PATTERNS, missing_pattern_classes,
    render_partitioned_matrix, run_partitioned_crash_scenario,
    run_partitioned_failure_matrix)
from repro.partition import PartitionedCluster
from repro.workload import SimulationParameters


def build(partitions=2, technique="group-safe", seed=7, items=100):
    params = SimulationParameters.small(
        server_count=3, item_count=items).with_overrides(
            partition_count=partitions)
    cluster = PartitionedCluster(technique, params=params, seed=seed)
    cluster.start()
    return cluster


# ------------------------------------------------------------------ failpoints
def test_unknown_failpoint_phase_is_rejected():
    cluster = build()
    with pytest.raises(ValueError):
        cluster.add_failpoint("not-a-phase", lambda context: None)


def test_failpoint_fires_once_by_default_and_counts():
    cluster = build()
    seen = []
    cluster.add_failpoint("2pc.prepared", seen.append)
    assert cluster.fire_failpoint("2pc.prepared", xid="x1") == 1
    assert cluster.fire_failpoint("2pc.prepared", xid="x2") == 0
    assert len(seen) == 1
    assert seen[0]["phase"] == "2pc.prepared"
    assert seen[0]["xid"] == "x1"
    assert seen[0]["cluster"] is cluster
    assert cluster.failpoints_fired == {"2pc.prepared": 1}


def test_unregistered_phase_is_a_noop():
    cluster = build()
    assert cluster.fire_failpoint("migration.fence") == 0
    assert cluster.failpoints_fired == {}


def test_crash_log_records_crashes_and_recoveries():
    cluster = build()
    obs = cluster.enable_observability()
    cluster.crash_server(0, "p0.s1")
    cluster.crash_partition(1)
    cluster.run(until=100)
    cluster.recover_server(0, "p0.s1")
    faults = [(instant.name, instant.labels["partition"],
               instant.labels.get("server"))
              for instant in obs.instants if instant.track == "faults"]
    assert faults == [("crash.server", 0, "p0.s1"),
                      ("crash.partition", 1, None),
                      ("recover.server", 0, "p0.s1")]


# ------------------------------------------------------------------ scenarios
def test_unknown_pattern_rejected():
    with pytest.raises(ValueError):
        run_partitioned_crash_scenario("group-safe", "not-a-pattern")


def test_shard_outage_loses_under_group_safe_but_is_contained():
    outcome = run_partitioned_crash_scenario("group-safe", "shard-outage")
    assert outcome.confirmed
    assert outcome.transaction_lost          # Fig. 5 inside one shard
    assert outcome.audited_shards[0].group_failed
    assert outcome.audited_shards[0].delegate_crashed
    # The partitioned point: the other shard kept serving throughout.
    assert outcome.fresh_commit_ok
    assert outcome.invariants_ok


def test_shard_outage_survived_by_two_safe():
    outcome = run_partitioned_crash_scenario("2-safe", "shard-outage")
    assert outcome.confirmed
    assert not outcome.transaction_lost
    assert outcome.findings == []


def test_coordinator_crash_before_decision_aborts_atomically():
    outcome = run_partitioned_crash_scenario("group-safe",
                                             "coordinator-before-decision")
    # The decision never became durable on the crashed home delegate, so
    # the client saw an abort — while the coordinator was still down, via
    # the bounded decision wait — and nothing was installed anywhere.
    assert not outcome.confirmed
    assert outcome.resolved_before_recovery
    assert outcome.resolved
    assert outcome.atomicity_ok
    assert outcome.fresh_commit_ok
    assert not outcome.transaction_lost


def test_coordinator_crash_after_decision_blocks_then_commits():
    outcome = run_partitioned_crash_scenario("group-safe",
                                             "coordinator-after-decision")
    # Classic 2PC: the client blocked while the coordinator was down, and
    # decision replay finished phase 2 after recovery — no loss.
    assert outcome.blocked_before_recovery
    assert outcome.confirmed
    assert outcome.resolved
    assert not outcome.transaction_lost
    assert outcome.findings == []


def test_source_crash_during_copy_aborts_migration_and_keeps_old_owner():
    outcome = run_partitioned_crash_scenario("group-safe",
                                             "migration-source-copy")
    assert outcome.migration_ok
    assert outcome.migration.aborted
    assert outcome.migration.abort_reason == "source-unavailable"
    assert outcome.routing_consistent        # old owner, live and recovered
    assert not outcome.transaction_lost
    assert outcome.invariants_ok


def test_destination_crash_under_fence_lifts_the_fence():
    outcome = run_partitioned_crash_scenario("group-safe",
                                             "migration-dest-fence")
    assert outcome.migration_ok
    assert outcome.migration.abort_reason == "destination-unavailable"
    # The probe committed into the previously fenced range while the
    # destination group was still fully down.
    assert outcome.fresh_commit_ok
    assert outcome.routing_consistent
    assert not outcome.transaction_lost


def test_post_epoch_crash_hands_off_to_the_new_owner():
    outcome = run_partitioned_crash_scenario("group-safe",
                                             "migration-post-epoch")
    assert outcome.migration_ok
    assert outcome.migration.completed and outcome.migration.verified
    # The audited shard is the destination: it serves the migrated keys and
    # recovery (driven by the force-logged EPOCH record) agrees with it.
    assert outcome.audited_shards[0].partition_id == 1
    assert outcome.routing_consistent
    assert not outcome.transaction_lost
    assert outcome.fresh_commit_ok


# ------------------------------------------------------------------ the matrix
@pytest.fixture(scope="module")
def group_safe_matrix():
    return run_partitioned_failure_matrix(techniques=["group-safe"], seed=2)


def test_matrix_covers_every_pattern(group_safe_matrix):
    patterns = {entry.crash_pattern for entry in group_safe_matrix}
    assert patterns == set(PARTITIONED_CRASH_PATTERNS)
    assert missing_pattern_classes(group_safe_matrix) == []


def test_matrix_is_sound(group_safe_matrix):
    assert violations(group_safe_matrix) == []


def test_matrix_demonstrates_the_whole_shard_loss(group_safe_matrix):
    assert "shard-outage" in {entry.crash_pattern
                              for entry in demonstrated(group_safe_matrix)}


def test_matrix_prediction_composes_per_shard(group_safe_matrix):
    by_pattern = {entry.crash_pattern: entry for entry in group_safe_matrix}
    # Group-safe: loss is possible exactly when the owning group failed.
    assert by_pattern["shard-outage"].predicted_possible_loss
    assert by_pattern["shard-outage-recover-all"].predicted_possible_loss
    assert by_pattern["migration-source-copy"].predicted_possible_loss
    assert not by_pattern["shard-delegate"].predicted_possible_loss
    # Coordinator crashes block, they never lose (2PC blocking rules).
    assert not by_pattern["coordinator-before-decision"].predicted_possible_loss
    assert not by_pattern["coordinator-after-decision"].predicted_possible_loss
    # After the handoff the destination (which never failed) serves.
    assert not by_pattern["migration-post-epoch"].predicted_possible_loss


def test_render_matrix_output(group_safe_matrix):
    rendering = render_partitioned_matrix(group_safe_matrix)
    assert "technique" in rendering and "shards" in rendering
    assert "LOST" in rendering and "kept" in rendering
    assert "soundness violations: 0" in rendering
