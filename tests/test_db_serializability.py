"""Tests of the one-copy serialisability checker."""

from __future__ import annotations

from repro.db import CommittedTransaction, check_one_copy_serializability


def test_clean_serial_history_passes():
    history = [
        CommittedTransaction("t1", 1, read_versions={"x": 0}, write_keys=("x",)),
        CommittedTransaction("t2", 2, read_versions={"x": 1}, write_keys=("y",)),
        CommittedTransaction("t3", 3, read_versions={"y": 1}, write_keys=("x",)),
    ]
    report = check_one_copy_serializability(history)
    assert report.serializable
    assert report.checked_transactions == 3
    assert bool(report) is True


def test_stale_read_detected():
    history = [
        CommittedTransaction("t1", 1, write_keys=("x",)),
        # t2 read x at version 0 although t1's write (version 1) committed first.
        CommittedTransaction("t2", 2, read_versions={"x": 0}, write_keys=("y",)),
    ]
    report = check_one_copy_serializability(history)
    assert not report.serializable
    assert any("stale read" in anomaly for anomaly in report.anomalies)


def test_lost_update_detected_on_equal_commit_order():
    history = [
        CommittedTransaction("t1", 5, write_keys=("x",)),
        CommittedTransaction("t2", 5, write_keys=("x",)),
    ]
    report = check_one_copy_serializability(history)
    assert not report.serializable
    assert any("lost update" in anomaly for anomaly in report.anomalies)


def test_reads_of_current_versions_are_fine():
    history = [
        CommittedTransaction("t1", 1, write_keys=("x",)),
        CommittedTransaction("t2", 2, read_versions={"x": 1}),
        CommittedTransaction("t3", 3, read_versions={"x": 1}),
    ]
    assert check_one_copy_serializability(history).serializable


def test_empty_history_is_serializable():
    assert check_one_copy_serializability([]).serializable

