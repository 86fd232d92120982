"""Tests of stable storage, the stable log and the write-ahead log."""

from __future__ import annotations

import pytest

from repro.db import (LogRecord, LogRecordType, StableLog, StableStorage,
                      TestableTransactionRegistry, WriteAheadLog)
from repro.network import Node
from repro.sim import Simulator


def test_stable_storage_basic_operations():
    storage = StableStorage("s")
    storage.put("a", 1)
    storage.put("b", 2)
    assert storage.get("a") == 1
    assert storage.get("missing", "default") == "default"
    assert "b" in storage and len(storage) == 2
    storage.delete("a")
    assert "a" not in storage
    assert storage.write_count == 2


def test_stable_log_append_and_truncate():
    log = StableLog()
    first = log.append("r1")
    second = log.append("r2")
    assert (first, second) == (0, 1)
    assert log.entries() == ["r1", "r2"]
    log.truncate(1)
    assert log.entries() == ["r2"]
    assert len(log) == 1


def test_wal_volatile_until_flushed():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)
    wal.append_commit("t1", {"x": 1}, commit_order=1)
    assert wal.volatile_records() and not wal.stable_records()
    assert not wal.is_logged("t1")

    def flusher():
        yield from wal.flush()

    node.spawn(flusher())
    sim.run()
    assert wal.is_logged("t1")
    assert wal.committed_transactions() == ["t1"]
    assert not wal.volatile_records()
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
    assert wal.committed_transactions() == ["t1", "t2"]
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
    assert wal.volatile_records() == []
    node.recover()
    assert wal.volatile_records() == [] and wal.stable_records() == []


def test_wal_flushed_gate_opens_on_durability():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)
    wal.append_commit("t1", {})
    waited = []

    def waiter():
        yield wal.flushed_gate("t1").wait()
        waited.append(sim.now)

    def flusher():
        yield sim.timeout(5.0)
        yield from wal.flush()

    node.spawn(waiter())
    node.spawn(flusher())
    sim.run()
    assert waited and waited[0] > 5.0
    # Gate for an already durable transaction opens immediately.
    assert wal.flushed_gate("t1").is_open


def test_wal_abort_records_are_not_commits():
    sim = Simulator()
    node = Node(sim, "s1")
    wal = WriteAheadLog(sim, node)
    wal.append_abort("t1")
    wal.append(LogRecord(LogRecordType.CHECKPOINT, "chk"))

    def flusher():
        yield from wal.flush()

    node.spawn(flusher())
    sim.run()
    assert wal.committed_transactions() == []
    assert not wal.is_logged("t1")


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


def test_testable_registry_exactly_once_bookkeeping():
    sim = Simulator()
    node = Node(sim, "s1")
    registry = TestableTransactionRegistry(node)
    registry.record_commit("t1", commit_order=3)
    registry.record_abort("t2", "certification")
    assert registry.has_committed("t1")
    assert registry.outcome("t2") == "abort"
    assert registry.has_decided("t2")
    assert not registry.has_decided("t3")
    assert registry.check_duplicate("t1")
    assert not registry.check_duplicate("t3")
    assert registry.duplicates_detected == 1
    assert registry.committed_ids() == ["t1"]
    assert registry.as_dict() == {"t1": "commit", "t2": "abort"}


def test_testable_registry_survives_crash():
    sim = Simulator()
    node = Node(sim, "s1")
    registry = TestableTransactionRegistry(node)
    registry.record_commit("t1")
    node.crash()
    node.recover()
    assert registry.has_committed("t1")
