"""Tests of the local database engine: execution, certification, recovery."""

from __future__ import annotations

import pytest

from repro.db import (LocalDatabase, LogRecordType, TransactionStatus,
                      UnknownItemError)
from repro.network import Node
from repro.sim import Simulator
from tests.conftest import make_program


@pytest.fixture
def db_setup():
    sim = Simulator(seed=11)
    node = Node(sim, "s1")
    database = LocalDatabase(sim, node, item_count=50)
    return sim, node, database


def run_generator(sim, node, generator):
    process = node.spawn(generator)
    sim.run()
    if not process.ok:
        raise process.value
    return process.value


def test_read_records_version_and_returns_value(db_setup):
    sim, node, db = db_setup
    txn = db.begin(make_program([("r", "item-1")]))

    def body():
        value = yield from db.read(txn, "item-1")
        return value

    value = run_generator(sim, node, body())
    assert value == 0
    assert txn.read_versions == {"item-1": 0}


def test_read_unknown_item_raises(db_setup):
    sim, node, db = db_setup
    txn = db.begin(make_program([("r", "item-1")]))

    def body():
        yield from db.read(txn, "no-such-item")

    with pytest.raises(UnknownItemError):
        run_generator(sim, node, body())


def test_stage_write_is_deferred(db_setup):
    sim, node, db = db_setup
    txn = db.begin(make_program([("w", "item-2", "v")]))
    db.stage_write(txn, "item-2", "v")
    assert txn.write_values == {"item-2": "v"}
    assert db.value_of("item-2") == 0          # nothing installed yet


def test_certification_passes_then_fails_after_conflicting_install(db_setup):
    sim, node, db = db_setup
    txn = db.begin(make_program([("r", "item-3"), ("w", "item-3", "mine")]))

    def body():
        yield from db.read(txn, "item-3")

    run_generator(sim, node, body())
    db.stage_write(txn, "item-3", "mine")
    payload = txn.certification_payload()
    assert db.certify(payload) is True

    # A concurrent transaction overwrites item-3 first.
    other = db.begin(make_program([("w", "item-3", "theirs")]), txn_id="s1:999")
    db.stage_write(other, "item-3", "theirs")
    db.install_writes(other.certification_payload())
    assert db.certify(payload) is False


def test_install_writes_assigns_commit_order_and_versions(db_setup):
    sim, node, db = db_setup
    txn = db.begin(make_program([("w", "item-4", "a")]))
    db.stage_write(txn, "item-4", "a")
    order = db.install_writes(txn.certification_payload())
    assert order == 1
    assert db.version_of("item-4") == 1
    assert db.value_of("item-4") == "a"
    # An explicit, larger commit order advances the counter.
    other = db.begin(make_program([("w", "item-5", "b")]), txn_id="s1:888")
    db.stage_write(other, "item-5", "b")
    assigned = db.install_writes(other.certification_payload(), commit_order=10)
    assert assigned == 10
    assert db.commit_counter == 10


def test_full_commit_cycle_logs_and_finalizes(db_setup):
    sim, node, db = db_setup
    program = make_program([("r", "item-6"), ("w", "item-7", "v")])
    txn = db.begin(program)

    def body():
        for op in program.operations:
            if op.is_read:
                yield from db.read(txn, op.key)
            else:
                db.stage_write(txn, op.key, op.value)
        payload = txn.certification_payload()
        order = db.install_writes(payload)
        db.wal.append_commit(txn.txn_id, txn.write_values, commit_order=order)
        yield from db.apply_physical_writes(payload.write_set)
        yield from db.wal.flush()
        db.finalize_commit(txn, order)

    run_generator(sim, node, body())
    assert txn.status is TransactionStatus.COMMITTED
    assert db.committed_count == 1
    assert db.wal.has_committed(txn.txn_id)
    assert db.wal.is_logged(txn.txn_id)


def test_finalize_abort_releases_and_counts(db_setup):
    sim, node, db = db_setup
    txn = db.begin(make_program([("w", "item-8", "v")]))
    db.finalize_abort(txn, "certification")
    assert txn.status is TransactionStatus.ABORTED
    assert db.aborted_count == 1
    assert db.certification_aborts == 1
    # The outcome is the ABORT record the replication technique logs.
    assert db.wal.decision(txn.txn_id) is None
    db.wal.append_abort(txn.txn_id)
    assert db.wal.decision(txn.txn_id).record_type is LogRecordType.ABORT


def test_locked_write_charges_disk_and_takes_lock(db_setup):
    sim, node, db = db_setup
    txn = db.begin(make_program([("w", "item-9", "v")]))

    def body():
        yield from db.write_locked(txn, "item-9", "v")

    run_generator(sim, node, body())
    assert db.locks.holds(txn.txn_id, "item-9")
    assert txn.write_values == {"item-9": "v"}


def test_recovery_replays_only_durable_commits(db_setup):
    sim, node, db = db_setup
    durable = db.begin(make_program([("w", "item-10", "durable")]))
    db.stage_write(durable, "item-10", "durable")
    order = db.install_writes(durable.certification_payload())

    db.wal.append_commit(durable.txn_id, durable.write_values,
                         commit_order=order)
    run_generator(sim, node, db.wal.flush())

    volatile = db.begin(make_program([("w", "item-11", "volatile")]))
    db.stage_write(volatile, "item-11", "volatile")
    db.install_writes(volatile.certification_payload())
    db.wal.append_commit(volatile.txn_id, volatile.write_values)

    node.crash()
    node.recover()
    redone = db.recover()
    assert redone == 1
    assert db.value_of("item-10") == "durable"
    assert db.value_of("item-11") == 0          # never durably logged


def test_crash_listener_resets_lock_table(db_setup):
    sim, node, db = db_setup
    txn = db.begin(make_program([("w", "item-12", "v")]))

    def body():
        yield from db.write_locked(txn, "item-12", "v")

    run_generator(sim, node, body())
    node.crash()
    node.recover()
    assert db.locks.holders("item-12") == {}


def test_logged_transactions_lists_durable_commits(db_setup):
    sim, node, db = db_setup
    assert db.wal.stable_records() == []
