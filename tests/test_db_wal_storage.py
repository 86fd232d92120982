"""Tests of the write-ahead log and its stable records."""

from __future__ import annotations

import pytest

from repro.db import LocalDatabase, LogRecord, LogRecordType, WriteAheadLog
from repro.network import Node
from repro.sim import Simulator


def test_wal_volatile_until_flushed():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)
    wal.append_commit("t1", {"x": 1}, commit_order=1)
    assert wal.has_committed("t1") and not wal.stable_records()
    assert not wal.is_logged("t1")

    def flusher():
        yield from wal.flush()

    node.spawn(flusher())
    sim.run()
    assert wal.is_logged("t1")
    assert [record.txn_id for record in wal.stable_records()] == ["t1"]
    # The tail is empty: a second flush has nothing to write.
    node.spawn(flusher())
    sim.run()
    assert wal.flush_count == 1


def test_wal_flush_occupies_a_disk():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node, write_time_low=8.0, write_time_high=8.0)
    wal.append_commit("t1", {})

    def flusher():
        yield from wal.flush()

    node.spawn(flusher())
    sim.run()
    assert node.disk.busy_time == pytest.approx(8.0)


def test_wal_group_commit_covers_records_appended_before_flush():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)
    wal.append_commit("t1", {})
    wal.append_commit("t2", {})

    def flusher():
        yield from wal.flush()

    node.spawn(flusher())
    sim.run()
    assert [record.txn_id for record in wal.stable_records()] == ["t1", "t2"]
    assert wal.flush_count == 1


def test_wal_crash_loses_unflushed_tail():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)
    wal.append_commit("t-durable", {})

    def flusher():
        yield from wal.flush()

    node.spawn(flusher())
    sim.run()
    wal.append_commit("t-volatile", {})
    wal.lose_volatile()
    assert wal.is_logged("t-durable")
    assert not wal.is_logged("t-volatile")


def test_wal_force_reports_a_durable_record():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)
    record = LogRecord.decision("xp-1")
    forced = node.spawn(wal.force(record))
    sim.run()
    assert forced.value is True
    assert wal.stable_records() == [record]


def test_wal_force_on_a_crashed_node_appends_nothing():
    # A record appended while the node is down would outlive the recovery
    # in the volatile tail and could later flush as a phantom record.
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)
    node.crash()
    forced = sim.spawn(wal.force(LogRecord.epoch(1, {"epoch": 1})))
    sim.run()
    assert forced.value is False
    node.recover()
    # Nothing waits in the tail: a flush after the recovery writes nothing.
    node.spawn(wal.flush())
    sim.run()
    assert wal.flush_count == 0 and wal.stable_records() == []


def test_wal_abort_records_are_not_commits():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)
    wal.append_abort("t1")
    wal.append(LogRecord.decision("chk"))

    def flusher():
        yield from wal.flush()

    node.spawn(flusher())
    sim.run()
    assert len(wal.stable_records()) == 2
    assert not wal.is_logged("t1") and not wal.is_logged("chk")


def test_empty_flush_is_a_noop():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)

    def flusher():
        yield from wal.flush()

    node.spawn(flusher())
    sim.run()
    assert wal.flush_count == 0
    assert node.disk.busy_time == 0.0


def test_wal_indexes_the_latest_outcome_of_each_transaction():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)
    wal.append_commit("t1", {}, commit_order=3)
    wal.append_abort("t2")
    wal.append(LogRecord.decision("xp-1"))
    assert wal.decision("t1").commit_order == 3
    assert wal.decision("t2").record_type is LogRecordType.ABORT
    assert wal.decision("t3") is None and wal.decision("xp-1") is None
    assert wal.has_committed("t1") and not wal.has_committed("t2")
    # A state-transfer checkpoint's commits join the index; a commit the
    # log already holds keeps its own record.
    wal.adopt_commit("t1", 9)
    wal.adopt_commit("t4", 5)
    assert wal.decision("t1").commit_order == 3
    assert wal.committed_ids() == {"t1": 3, "t4": 5}
    assert wal.has_committed("t4") and not wal.is_logged("t4")


def test_wal_outcome_survives_a_crash_iff_its_record_was_flushed():
    sim = Simulator()
    node = Node(sim, "s1")
    db = LocalDatabase(sim, node, write_time_low=8.0, write_time_high=8.0)
    wal = db.wal
    wal.append_commit("t-flushed", {})
    wal.append_abort("t-aborted")

    def flusher():
        yield from wal.flush()

    node.spawn(flusher())
    sim.run(until=4.0)
    # Group commit: a record appended while the flush waits for the disk is
    # made durable by that same flush.
    wal.append_commit("t-joined", {})
    assert wal.has_committed("t-joined") and not wal.is_logged("t-joined")
    sim.run()
    assert wal.is_logged("t-joined")
    wal.append_commit("t-volatile", {})
    wal.adopt_commit("t-adopted", 7)
    assert wal.has_committed("t-volatile") and wal.has_committed("t-adopted")
    node.crash()
    node.recover()
    assert wal.is_logged("t-flushed") and wal.is_logged("t-joined")
    assert wal.decision("t-aborted").record_type is LogRecordType.ABORT
    assert wal.decision("t-volatile") is None
    assert wal.decision("t-adopted") is None
    assert wal.committed_ids() == {"t-flushed": None, "t-joined": None}
