"""Tests of the logical item store and transaction programs."""

from __future__ import annotations

import pytest

from repro.core.audit import SafetyAudit
from repro.db import (Item, ItemStore, LocalDatabase, Operation,
                      OperationType, TransactionProgram, WriteSetMessage, read,
                      redo_from_log, write)
from repro.db.items import INITIAL, item_keys
from repro.db.wal import LogRecord, LogRecordType
from repro.experiments.rebalance import audit_commit_integrity
from repro.gcs.state_transfer import install_checkpoint, take_checkpoint
from repro.network import Node
from repro.partition import PartitionedCluster
from repro.partition.workload import PartitionedOpenLoopClients
from repro.sim import Simulator
from repro.workload import SimulationParameters
from tests.conftest import make_program


def test_item_install_bumps_version_and_keeps_history():
    item = Item(key="x", value=0)
    item.install("v1", writer="t1", commit_order=1)
    item.install("v2", writer="t2", commit_order=2)
    assert item.value == "v2"
    assert item.version == 2
    assert item.writer == "t2"
    assert [version.value for version in item.history] == [0, "v1"]


def test_item_install_follows_thomas_write_rule():
    item = Item(key="x", value=0)
    item.install("new", writer="t2", commit_order=5)
    item.install("stale", writer="t1", commit_order=3)   # older commit: skipped
    assert item.value == "new"
    assert item.version == 1


def test_item_store_creation_and_lookup():
    store = ItemStore(item_count=10)
    assert len(store) == 10
    assert "item-0" in store and "item-9" in store
    assert "item-10" not in store
    with pytest.raises(KeyError):
        store.get("missing")
    with pytest.raises(ValueError):
        store.create("item-0")


def test_item_store_snapshot_and_restore():
    store = ItemStore(item_count=3)
    store.get("item-1").install("written", writer="t1", commit_order=1)
    snapshot = store.snapshot()
    store.get("item-1").install("changed", writer="t2", commit_order=2)
    store.restore(snapshot)
    assert store.get("item-1").value == "written"
    assert store.get("item-1").version == 1
    assert store.versions()["item-2"] == 0


def test_untouched_population_is_implicit_and_shared():
    first, second = ItemStore(item_count=500), ItemStore(item_count=500)
    assert first.materialised == 0
    assert first.keys() == [f"item-{i}" for i in range(500)]
    # One key tuple per population and process, not one per store.
    assert item_keys(500) is item_keys(500)
    assert first.keys()[7] is second.keys()[7]
    # Queries answer for the whole population without faulting anything in.
    assert len(first) == 500 and "item-499" in first
    assert first.committed("item-3") is INITIAL
    assert first.versions()["item-499"] == 0
    assert first.snapshot() == {}
    assert first.materialised == 0
    with pytest.raises(KeyError):
        first.committed("item-500")


def test_lookup_and_get_hand_out_one_canonical_item():
    store = ItemStore(item_count=5)
    item = store.lookup("item-2")
    assert item is store.lookup("item-2") is store.get("item-2")
    assert store.materialised == 1
    assert store.lookup("missing") is None
    assert store.materialised == 1            # an unknown key is not faulted in
    item.install("v", writer="t1", commit_order=1)
    assert store.committed("item-2").version == 1
    assert store.snapshot().keys() == {"item-2"}


def test_create_outside_the_population_survives_reset_in_creation_order():
    store = ItemStore(item_count=2)
    store.create("late", value=9)
    store.create("later")
    with pytest.raises(ValueError):
        store.create("late")
    assert store.keys() == ["item-0", "item-1", "late", "later"]
    assert store.get("late").value == 9
    store.reset()
    assert store.materialised == 0
    assert store.keys() == ["item-0", "item-1", "late", "later"]
    assert store.get("late").value == 0      # reset returns it to version 0
    assert [item.key for item in store] == store.keys()
    assert store.materialised == 4            # iteration touches everything


def test_redo_from_log_drops_unlogged_state():
    store = ItemStore(item_count=4)
    store.get("item-0").install("lost", writer="t0", commit_order=1)
    records = [
        LogRecord(LogRecordType.COMMIT, "t1", {"item-1": "a", "extra": "b"},
                  commit_order=1),
        LogRecord(LogRecordType.ABORT, "t2"),
        LogRecord(LogRecordType.COMMIT, "t3", {"item-1": "c"}),
    ]
    assert redo_from_log(store, records) == 2
    assert store.committed("item-0") is INITIAL
    assert store.committed("item-1").value == "c"
    assert store.committed("item-1").version == 2
    assert store.committed("extra").writer == "t1"
    assert store.materialised == 2


def _database(sim: Simulator, name: str, item_count: int = 10) -> LocalDatabase:
    return LocalDatabase(sim, Node(sim, name), item_count=item_count)


def _writes(txn_id: str, delegate: str, write_values) -> WriteSetMessage:
    return WriteSetMessage(txn_id=txn_id, delegate=delegate, read_versions={},
                           write_values=write_values, program_id=0)


def test_install_checkpoint_discards_keys_the_source_never_wrote():
    # Regression: the gcs install_checkpoint used to restore() without a
    # reset, which a sparse snapshot turns into a stale local version.
    sim = Simulator(seed=1)
    source, target = _database(sim, "s1"), _database(sim, "s2")
    source.install_writes(_writes("t1", "s1", {"item-1": "group"}))
    target.install_writes(_writes("local", "s2", {"item-7": "mine"}))
    assert target.version_of("item-7") == 1
    install_checkpoint(target, take_checkpoint(source, at_time=0.0))
    assert target.items.versions() == source.items.versions()
    assert target.items.snapshot() == source.items.snapshot()
    assert target.version_of("item-7") == 0
    assert target.commit_counter == source.commit_counter == 1


def test_read_overlapping_an_install_sees_the_post_install_version():
    # LocalDatabase.read hoists the lookup above its disk wait and reads
    # item.version afterwards: the store must have handed it the canonical
    # item of a so-far untouched key, not a throw-away default.
    sim = Simulator(seed=3)
    database = LocalDatabase(sim, Node(sim, "s1"), item_count=10,
                             hit_ratio=0.0)          # every read hits the disk
    transaction = database.begin(make_program([("r", "item-4")]))
    values = []

    def reader():
        values.append((yield from database.read(transaction, "item-4")))

    def writer():
        yield sim.timeout(1.0)                       # inside the 4-12 ms read
        database.install_writes(_writes("t-writer", "s1", {"item-4": "fresh"}))

    assert database.items.materialised == 0
    sim.spawn(reader())
    sim.spawn(writer())
    sim.run()
    assert sim.now > 1.0
    assert values == ["fresh"]
    assert transaction.read_versions == {"item-4": 1}
    assert database.items.materialised == 1


def _partitioned(item_count: int, **overrides) -> PartitionedCluster:
    params = SimulationParameters.small(
        server_count=3, item_count=item_count).with_overrides(
        partition_count=4, **overrides)
    cluster = PartitionedCluster("group-safe", params=params, seed=5,
                                 strategy="range")
    cluster.start()
    return cluster


def _materialised(cluster: PartitionedCluster) -> int:
    return sum(database.items.materialised for group in cluster.groups
               for database in group.databases.values())


def test_building_and_scanning_a_large_cluster_materialises_nothing():
    cluster = _partitioned(65_536, zipf_skew=0.6)
    clients = PartitionedOpenLoopClients(cluster, load_tps=40.0)
    assert sum(len(database.items) for group in cluster.groups
               for database in group.databases.values()) == 12 * 65_536
    assert _materialised(cluster) == 0
    for group in cluster.groups:
        assert SafetyAudit(group).divergent_items() == []
    assert audit_commit_integrity(cluster, clients) == []
    # The range scan and delta pass of a migration, as the driver runs them.
    source = cluster.groups[0]
    database = source.database(source.up_servers()[0])
    key_range = cluster.routing.range_of(0)
    keys = [key for key in database.items.keys()
            if key_range.contains(cluster.routing.position_of(key))]
    assert len(keys) == 65_536 // 4
    assert not any(database.version_of(key) for key in keys)
    assert {database.value_of(key) for key in keys} == {0}
    assert _materialised(cluster) == 0


def test_a_loaded_run_materialises_only_the_keys_it_touched():
    cluster = _partitioned(4_096, zipf_skew=0.6,
                           cross_partition_probability=0.1)
    touched = set()
    next_program = cluster.workload.next_program

    def recording(client="client"):
        program = next_program(client=client)
        touched.update(operation.key for operation in program.operations)
        return program

    cluster.workload.next_program = recording
    clients = PartitionedOpenLoopClients(cluster, load_tps=40.0)
    clients.start()
    cluster.run(until=1_500.0)
    assert len(clients.results) > 20
    assert 0 < len(touched) < 4_096
    for group in cluster.groups:
        for database in group.databases.values():
            assert 0 < database.items.materialised <= len(touched)
    assert _materialised(cluster) <= 3 * len(touched)


def test_operation_constructors_and_flags():
    r = read("x")
    w = write("y", 42)
    assert r.is_read and not r.is_write
    assert w.is_write and w.value == 42
    assert r.op_type is OperationType.READ


def test_program_structure_queries():
    program = TransactionProgram(operations=(
        read("a"), write("b", 1), read("a"), write("b", 2), write("c", 3)))
    assert program.length == 5
    assert program.write_keys == ["b", "c"]


def test_program_requires_operations_and_unique_ids():
    with pytest.raises(ValueError):
        TransactionProgram(operations=())
    first = TransactionProgram(operations=(read("a"),))
    second = TransactionProgram(operations=(read("a"),))
    assert first.program_id != second.program_id


def test_read_only_program_detection():
    program = TransactionProgram(operations=(read("a"), read("b")))
    assert program.write_keys == []


def test_make_program_compact_spec():
    program = make_program([("r", "x"), ("w", "y", 9)], client="tester")
    assert program.operations[0].is_read
    assert program.operations[1].value == 9
    assert program.client == "tester"
    with pytest.raises(ValueError):
        make_program([("q", "x")])
