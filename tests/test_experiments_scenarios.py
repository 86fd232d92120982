"""Tests of the failure-injection experiments (Fig. 5, Fig. 7, Tables 2 and 3)."""

from __future__ import annotations

import pytest

from repro.experiments import (CRASH_PATTERNS, crash_tolerance_summary,
                               demonstrated, figure5_scenario,
                               figure7_scenario, render_matrix,
                               run_crash_scenario, run_failure_matrix,
                               single_crash_scenario, violations)


def test_figure5_classical_broadcast_loses_the_confirmed_transaction():
    outcome = figure5_scenario()
    assert outcome.confirmed
    assert outcome.transaction_lost
    # Only the (crashed, never-recovered) delegate ever committed it.
    assert outcome.committed_on == ["s1"]
    assert outcome.group_failed and outcome.delegate_crashed


def test_figure7_end_to_end_broadcast_recovers_the_transaction():
    outcome = figure7_scenario()
    assert outcome.confirmed
    assert not outcome.transaction_lost
    # The recovered servers replayed and committed it.
    assert set(outcome.committed_on) >= {"s2", "s3"}


def test_one_safe_cannot_tolerate_a_single_crash():
    outcome = single_crash_scenario("1-safe")
    assert outcome.confirmed
    assert outcome.transaction_lost


def test_group_safe_tolerates_a_single_crash_of_the_delegate():
    outcome = single_crash_scenario("group-safe")
    assert outcome.confirmed
    assert not outcome.transaction_lost


def test_two_safe_survives_the_crash_of_every_server():
    outcome = run_crash_scenario("2-safe", "all-recover-all",
                                 freeze_non_delegates=True)
    assert outcome.confirmed
    assert not outcome.transaction_lost
    assert set(outcome.committed_on) == {"s1", "s2", "s3"}


def test_group_safe_loses_when_the_whole_group_fails():
    outcome = run_crash_scenario("group-safe", "all-delegate-stays-down",
                                 freeze_non_delegates=True)
    assert outcome.confirmed
    assert outcome.transaction_lost


def test_unknown_crash_pattern_rejected():
    with pytest.raises(ValueError):
        run_crash_scenario("group-safe", "not-a-pattern")
    assert "all-recover-all" in CRASH_PATTERNS


@pytest.fixture(scope="module")
def failure_matrix():
    return run_failure_matrix(seed=2)


def test_failure_matrix_is_sound(failure_matrix):
    assert violations(failure_matrix) == []


def test_failure_matrix_demonstrates_the_expected_losses(failure_matrix):
    losing = {(entry.technique, entry.crash_pattern)
              for entry in demonstrated(failure_matrix)}
    assert ("1-safe", "delegate") in losing
    assert ("0-safe", "delegate") in losing
    assert ("group-safe", "all-delegate-stays-down") in losing
    assert ("group-1-safe", "all-delegate-stays-down") in losing
    assert not any(technique == "2-safe" for technique, _ in losing)


def test_failure_matrix_crash_tolerance_matches_table2(failure_matrix):
    tolerance = crash_tolerance_summary(failure_matrix)
    # 2-safe survived even the pattern crashing all 3 servers.
    assert tolerance["2-safe"] == 3
    # The group-based techniques survived the single-crash patterns.
    assert tolerance["group-safe"] >= 1
    assert tolerance["group-1-safe"] >= 1


def test_render_matrix_output(failure_matrix):
    rendering = render_matrix(failure_matrix)
    assert "technique" in rendering
    assert "LOST" in rendering and "kept" in rendering
