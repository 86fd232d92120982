"""The netsplit matrix: derived predictions, cell runners and the gates.

The prediction tests pin :func:`repro.core.matrix.netsplit_outcome` cell by
cell; the scenario tests run a few representative (engine, fault, detector)
cells end to end and check the observed progress/blocking against the
predictions, the commit-integrity audit and the convergence check; the
gate tests exercise the soundness/match classification on synthetic
outcomes so a regression in the matrix's own accounting cannot hide.
"""

from __future__ import annotations

import pytest

from repro.core.audit import Finding, FindingKind
from repro.core.matrix import (NETSPLIT_FAULT_KINDS, NetsplitPrediction,
                               netsplit_outcome)
from repro.experiments.harness import violations
from repro.experiments.netsplit_matrix import (
    DETECTOR_CONFIGS, FAULT_END, FAULT_START, GROUP_FAULT_PATTERNS,
    NetsplitCellOutcome, engines_missing_minority_blocking,
    netsplit_prediction_mismatches, render_netsplit_matrix,
    run_gray_2pc_scenario, run_group_netsplit_scenario,
    run_migration_fence_split_scenario, run_netsplit_matrix)


# ---------------------------------------------------------------- predictions
def test_partition_predictions_follow_the_quorum_discipline():
    blind = netsplit_outcome("partition", coordinator_in_minority=True,
                             detector_sees_fault=False)
    assert blind == NetsplitPrediction(minority_blocks=True,
                                       majority_progress=False,
                                       possible_loss=False)
    seen = netsplit_outcome("partition", coordinator_in_minority=True,
                            detector_sees_fault=True)
    assert seen.majority_progress is True
    follower = netsplit_outcome("partition", coordinator_in_minority=False,
                                detector_sees_fault=False)
    assert follower.majority_progress is True
    assert follower.minority_blocks is True


def test_lossy_predicts_nothing_about_progress():
    prediction = netsplit_outcome("lossy", False, False)
    assert prediction.minority_blocks is None
    assert prediction.majority_progress is None
    assert prediction.possible_loss is False


@pytest.mark.parametrize("kind", ["slow", "gray-disk", "gray-cpu"])
def test_delay_faults_predict_progress_everywhere(kind):
    prediction = netsplit_outcome(kind, False, False)
    assert prediction == NetsplitPrediction(minority_blocks=False,
                                            majority_progress=True,
                                            possible_loss=False)


def test_no_netsplit_cell_may_lose_a_confirmed_transaction():
    for kind in NETSPLIT_FAULT_KINDS:
        for minority in (True, False):
            for seen in (True, False):
                assert not netsplit_outcome(kind, minority, seen).possible_loss


def test_unknown_fault_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        netsplit_outcome("emp", False, False)


# ---------------------------------------------------------------- cell gates
def _outcome(**overrides) -> NetsplitCellOutcome:
    base = dict(engine="fixed-sequencer", fault_pattern="split-minority-follower",
                detector="perfect",
                prediction=netsplit_outcome("partition", False, False),
                majority_commits=3, minority_commits=0, post_heal_ok=True,
                converged=True)
    base.update(overrides)
    return NetsplitCellOutcome(**base)


def test_a_clean_cell_is_sound_and_matched():
    entry = _outcome()
    assert entry.sound and entry.matched
    assert entry.demonstrated


def test_minority_commit_in_a_blocked_cell_is_a_soundness_violation():
    entry = _outcome(minority_commits=1)
    assert not entry.sound
    assert not entry.matched
    assert violations([entry]) == [entry]


def test_observed_loss_and_divergence_are_soundness_violations():
    lost = _outcome(findings=[Finding(FindingKind.LOST, "t1", "is gone")])
    assert lost.observed_loss and not lost.sound
    assert not _outcome(problems=["migration did not complete"]).sound
    assert not _outcome(converged=False).sound
    assert not _outcome(post_heal_ok=False).sound


def test_blocked_majority_in_a_progress_cell_is_a_mismatch_not_a_violation():
    entry = _outcome(majority_commits=0)
    assert entry.sound
    assert not entry.matched
    assert netsplit_prediction_mismatches([entry]) == [entry]


def test_unpredicted_axes_never_mismatch():
    entry = _outcome(prediction=netsplit_outcome("lossy", False, False),
                     majority_commits=0, minority_commits=5)
    assert entry.matched
    assert not entry.demonstrated


def test_engines_missing_minority_blocking_names_the_engine():
    blocking = _outcome()
    silent = _outcome(engine="multi-paxos",
                      prediction=netsplit_outcome("slow", False, False),
                      minority_commits=2)
    assert engines_missing_minority_blocking([blocking, silent]) == \
        ["multi-paxos"]
    assert engines_missing_minority_blocking([blocking]) == []


def test_render_lists_counts_and_violations():
    text = render_netsplit_matrix([_outcome(), _outcome(minority_commits=2)])
    assert "cells: 2" in text
    assert "soundness violations: 1" in text
    assert "VIOLATION" in text


# ---------------------------------------------------------------- live cells
def test_unknown_pattern_and_detector_are_rejected():
    with pytest.raises(ValueError, match="unknown fault pattern"):
        run_group_netsplit_scenario("fixed-sequencer", "meteor", "perfect")
    with pytest.raises(ValueError, match="unknown detector"):
        run_group_netsplit_scenario("fixed-sequencer",
                                    "split-minority-follower", "psychic")


def test_follower_split_cell_commits_on_the_majority_only():
    outcome = run_group_netsplit_scenario("fixed-sequencer",
                                          "split-minority-follower",
                                          "perfect", seed=1)
    assert outcome.majority_commits == 3
    assert outcome.minority_commits == 0
    assert outcome.sound and outcome.matched
    assert outcome.demonstrated
    assert outcome.drops_by_cause.get("partitioned", 0) > 0


def test_blind_detector_with_coordinator_in_minority_blocks_everything():
    outcome = run_group_netsplit_scenario("fixed-sequencer",
                                          "split-minority-coordinator",
                                          "perfect", seed=1)
    assert outcome.majority_commits == 0
    assert outcome.minority_commits == 0
    assert not outcome.observed_loss
    assert outcome.sound and outcome.matched


def test_heartbeat_detector_restores_majority_progress():
    outcome = run_group_netsplit_scenario("multi-paxos",
                                          "split-minority-coordinator",
                                          "hb-fast", seed=1)
    assert outcome.majority_commits > 0
    assert outcome.minority_commits == 0
    assert outcome.suspicion_count >= 1
    assert outcome.sound and outcome.matched


def test_gray_disk_cell_commits_with_inflated_latency():
    outcome = run_group_netsplit_scenario("fixed-sequencer",
                                          "gray-degraded-disk",
                                          "perfect", seed=1)
    assert outcome.majority_commits == 3
    assert outcome.minority_commits == 2
    assert outcome.latency_inflation is not None
    assert outcome.latency_inflation > 1.5
    assert outcome.sound and outcome.matched


def test_migration_fence_split_completes_and_resyncs_the_victim():
    outcome = run_migration_fence_split_scenario("fixed-sequencer", seed=1)
    assert outcome.majority_commits == 1   # the migration completed
    assert outcome.post_heal_ok
    assert outcome.converged
    assert outcome.sound and outcome.matched


def test_gray_2pc_cell_commits_atomically_under_the_degraded_disk():
    outcome = run_gray_2pc_scenario("multi-paxos", seed=1)
    assert outcome.majority_commits == 1
    assert outcome.latency_inflation is not None
    assert outcome.latency_inflation > 1.5
    assert outcome.post_heal_ok
    assert outcome.sound and outcome.matched


def test_matrix_runner_spans_engines_patterns_and_detectors():
    entries = run_netsplit_matrix(engines=["fixed-sequencer"],
                                  patterns=["split-minority-follower"],
                                  detectors=["perfect", "hb-slow"],
                                  include_partitioned=False)
    assert [(e.engine, e.fault_pattern, e.detector) for e in entries] == [
        ("fixed-sequencer", "split-minority-follower", "perfect"),
        ("fixed-sequencer", "split-minority-follower", "hb-slow")]
    assert violations(entries) == []
    assert netsplit_prediction_mismatches(entries) == []


def test_fault_window_and_configs_are_consistent():
    assert FAULT_END > FAULT_START
    assert DETECTOR_CONFIGS["hb-fast"]["heartbeat_timeout"] < \
        FAULT_END - FAULT_START
    assert DETECTOR_CONFIGS["hb-slow"]["heartbeat_timeout"] > \
        FAULT_END - FAULT_START
    for pattern, (kind, minority, _) in GROUP_FAULT_PATTERNS.items():
        assert kind in NETSPLIT_FAULT_KINDS, pattern
        assert "s2" not in minority, "s2 is the fixed majority delegate"
