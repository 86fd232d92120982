"""Tests of the safety levels, criteria and the Table 1/2/3 derivations."""

from __future__ import annotations

import pytest

from repro.core import (CRITERIA, TECHNIQUE_SAFETY, DeliveredOn, LoggedOn,
                        SafetyLevel, classify, classify_notification,
                        crash_tolerance_table, criterion_for,
                        group_safety_comparison_table, loss_condition,
                        render_loss_table, render_safety_matrix,
                        safety_matrix, safety_of_technique)


# --------------------------------------------------------------------- Table 1
def test_table1_matrix_matches_the_paper():
    matrix = safety_matrix()
    assert matrix[(DeliveredOn.ONE, LoggedOn.NONE)] is SafetyLevel.ZERO_SAFE
    assert matrix[(DeliveredOn.ONE, LoggedOn.ONE)] is SafetyLevel.ONE_SAFE
    assert matrix[(DeliveredOn.ONE, LoggedOn.ALL)] is None       # greyed out
    assert matrix[(DeliveredOn.ALL, LoggedOn.NONE)] is SafetyLevel.GROUP_SAFE
    assert matrix[(DeliveredOn.ALL, LoggedOn.ONE)] is SafetyLevel.GROUP_ONE_SAFE
    assert matrix[(DeliveredOn.ALL, LoggedOn.ALL)] is SafetyLevel.TWO_SAFE


def test_classify_round_trips_with_level_axes():
    for level in (SafetyLevel.ZERO_SAFE, SafetyLevel.ONE_SAFE,
                  SafetyLevel.GROUP_SAFE, SafetyLevel.GROUP_ONE_SAFE,
                  SafetyLevel.TWO_SAFE):
        assert classify(level.delivered_on, level.logged_on) is level


def test_classify_notification_from_runtime_flags():
    assert classify_notification(False, False) is SafetyLevel.ZERO_SAFE
    assert classify_notification(False, True) is SafetyLevel.ONE_SAFE
    assert classify_notification(True, False) is SafetyLevel.GROUP_SAFE
    assert classify_notification(True, True) is SafetyLevel.GROUP_ONE_SAFE
    assert classify_notification(True, True, logged_on_all=True) is SafetyLevel.TWO_SAFE
    # The impossible runtime combination degrades conservatively.
    assert classify_notification(False, False,
                                 logged_on_all=True) is SafetyLevel.ONE_SAFE


def test_render_safety_matrix_mentions_every_level():
    rendering = render_safety_matrix()
    for level in ("0-safe", "1-safe", "group-safe", "group-1-safe", "2-safe"):
        assert level in rendering


# --------------------------------------------------------------------- Table 2
def test_table2_tolerated_crashes():
    n = 9
    assert SafetyLevel.ZERO_SAFE.tolerated_crashes(n) == 0
    assert SafetyLevel.ONE_SAFE.tolerated_crashes(n) == 0
    assert SafetyLevel.GROUP_SAFE.tolerated_crashes(n) == n - 1
    assert SafetyLevel.GROUP_ONE_SAFE.tolerated_crashes(n) == n - 1
    assert SafetyLevel.TWO_SAFE.tolerated_crashes(n) == n
    assert SafetyLevel.VERY_SAFE.tolerated_crashes(n) == n
    with pytest.raises(ValueError):
        SafetyLevel.TWO_SAFE.tolerated_crashes(0)


def test_table2_rows_group_levels_as_in_the_paper():
    rows = crash_tolerance_table(group_size=9)
    by_label = {row.tolerated_crashes: set(row.levels) for row in rows}
    assert by_label["0 crashes"] == {SafetyLevel.ZERO_SAFE, SafetyLevel.ONE_SAFE}
    assert by_label["less than 9 crashes"] == {SafetyLevel.GROUP_SAFE,
                                               SafetyLevel.GROUP_ONE_SAFE}
    assert by_label["9 crashes"] == {SafetyLevel.TWO_SAFE}


# --------------------------------------------------------------------- Table 3
def test_table3_loss_conditions_match_the_paper():
    # Group-safe row: loss possible whenever the group fails.
    assert not loss_condition(SafetyLevel.GROUP_SAFE, False, False)
    assert loss_condition(SafetyLevel.GROUP_SAFE, True, False)
    assert loss_condition(SafetyLevel.GROUP_SAFE, True, True)
    # Group-1-safe row: loss additionally needs the delegate to crash.
    assert not loss_condition(SafetyLevel.GROUP_ONE_SAFE, False, False)
    assert not loss_condition(SafetyLevel.GROUP_ONE_SAFE, True, False)
    assert loss_condition(SafetyLevel.GROUP_ONE_SAFE, True, True)
    # 2-safe never loses; 1-safe loses as soon as the delegate crashes.
    assert not loss_condition(SafetyLevel.TWO_SAFE, True, True)
    assert loss_condition(SafetyLevel.ONE_SAFE, False, True)


def test_table3_cells_and_rendering():
    cells = group_safety_comparison_table()
    assert len(cells) == 6
    middle_group_safe = next(
        cell for cell in cells
        if cell.level is SafetyLevel.GROUP_SAFE and cell.group_fails
        and not cell.delegate_crashes)
    middle_group_1_safe = next(
        cell for cell in cells
        if cell.level is SafetyLevel.GROUP_ONE_SAFE and cell.group_fails
        and not cell.delegate_crashes)
    # The middle column is exactly where the two criteria differ.
    assert middle_group_safe.possible_loss
    assert not middle_group_1_safe.possible_loss
    rendering = render_loss_table()
    assert "Possible Transaction Loss" in rendering
    assert "No Transaction Loss" in rendering


# ----------------------------------------------------------------- levels / criteria
def test_criteria_catalogue_is_complete_and_quotable():
    assert str(SafetyLevel.GROUP_SAFE) == "group-safe"
    assert set(CRITERIA) == set(SafetyLevel)
    statement = criterion_for(SafetyLevel.GROUP_SAFE).statement
    assert "delivered" in statement and "available servers" in statement


def test_technique_safety_mapping():
    assert safety_of_technique("group-safe") is SafetyLevel.GROUP_SAFE
    assert safety_of_technique("1-safe") is SafetyLevel.ONE_SAFE
    assert safety_of_technique("2-safe") is SafetyLevel.TWO_SAFE
    assert set(TECHNIQUE_SAFETY) == {"0-safe", "1-safe", "group-safe",
                                     "group-1-safe", "2-safe"}
    with pytest.raises(ValueError):
        safety_of_technique("3-safe")
