"""The generator's partition tables and the migration's copy list, cut from
shard ranges, against the per-key reference (``reference_partition_keys``).

Every comparison is exact: key lists by ``==`` and float tables by ``==``,
with no tolerance, because the skewed draws bisect into these tables and a
last-bit difference would move a draw.
"""

from __future__ import annotations

import pytest

from repro.db.items import ItemStore, item_keys
from repro.db.wal import LogRecord
from repro.partition import (KeyRange, PartitionedCluster,
                             PartitionedWorkloadGenerator, RoutingTable)
from repro.partition import migration as migration_module
from repro.partition import routing as routing_module
from repro.sim import Simulator
from repro.workload import SimulationParameters
from repro.workload.generator import zipf_cumulative
from tests import reference_partition_keys as reference

ITEMS = 240


def range_table(slots=ITEMS):
    return RoutingTable.even_ranges(4, slots)


def make_generator(table, skew, items=ITEMS):
    params = SimulationParameters.small(item_count=items).with_overrides(
        zipf_skew=skew, cross_partition_probability=0.2)
    return PartitionedWorkloadGenerator(Simulator(seed=5), params, table)


def assert_tables_match_reference(generator):
    table = generator.routing
    keys = item_keys(len(generator.item_keys))
    expected = reference.partition_keys(reference.fresh_snapshot(table), keys)
    built = {partition_id: list(members) for partition_id, members
             in generator._keys_by_partition.items() if members}
    assert built == expected
    assert generator._nonempty_partitions == sorted(expected)
    if generator.skew > 0:
        cumulative = {partition_id: list(weights) for partition_id, weights
                      in generator._cumulative_by_partition.items()
                      if weights}
        assert cumulative == reference.cumulative_by_partition(
            expected, keys, generator.skew)


def recovered(table):
    payload = table.as_payload()
    return RoutingTable.recover(
        [LogRecord.epoch(payload["epoch"], payload)],
        group_count=table.group_count, item_count=table.slots)


@pytest.mark.parametrize("skew", [0.0, 0.6])
@pytest.mark.parametrize("slots", [ITEMS, 200, 300],
                         ids=["slots=items", "clamped", "spare-slots"])
def test_range_tables_match_the_per_key_grouping(skew, slots):
    table = range_table(slots)
    generator = make_generator(table, skew)
    assert_tables_match_reference(generator)
    table.split(0, at=37)
    generator.next_program()
    assert_tables_match_reference(generator)
    # Group 2 now owns [0, 37) and its own range: two ranges, not adjacent.
    table.migrate(0, destination_group=2)
    generator.next_program()
    assert [assignment.group_id for assignment in table.assignments] == \
        [2, 0, 1, 2, 3]
    assert_tables_match_reference(generator)
    restarted = make_generator(recovered(table), skew)
    assert_tables_match_reference(restarted)
    assert restarted._keys_by_partition == generator._keys_by_partition
    assert restarted._cumulative_by_partition == \
        generator._cumulative_by_partition


@pytest.mark.parametrize("skew", [0.0, 0.6])
def test_tables_after_a_group_is_emptied_match_the_per_key_grouping(skew):
    table = range_table()
    generator = make_generator(table, skew)
    assert_tables_match_reference(generator)
    table.migrate(0, destination_group=1)     # group 1: two adjacent ranges
    generator.next_program()
    assert_tables_match_reference(generator)
    # Group 0 owns nothing now, which a new generator refuses: rebuild this
    # one's tables on the recovered map instead.
    tables = generator._keys_by_partition
    generator.routing = recovered(table)
    generator._refresh_partition_caches()
    assert_tables_match_reference(generator)
    assert generator._keys_by_partition == tables


@pytest.mark.parametrize("skew", [0.6, 1.1])
def test_zipf_cumulative_sums_in_rank_order(skew):
    assert list(zipf_cumulative(ITEMS, skew)) == \
        reference.zipf_cumulative(ITEMS, skew)


def test_zipf_tables_refuse_an_empty_population():
    with pytest.raises(ValueError):
        zipf_cumulative(0, 0.6)


def test_copy_list_matches_the_filtered_store_keys():
    table = range_table()
    store = ItemStore(ITEMS)
    # One created key with a conventional suffix (position 7), one routed by
    # its hash.
    store.create("extra-7")
    store.create("zz")
    table.split(0, at=30)
    for assignment in table.assignments:
        key_range = assignment.key_range
        assert table.keys_in(store, key_range) == \
            reference.copy_list(store, table, key_range)
    covered = [key for assignment in table.assignments
               for key in table.keys_in(store, assignment.key_range)]
    assert sorted(covered) == sorted(store.keys())


def test_a_live_migration_copies_the_filtered_store_keys(monkeypatch):
    params = SimulationParameters.small(
        server_count=3, item_count=120).with_overrides(partition_count=2)
    cluster = PartitionedCluster("group-safe", params=params, seed=11)
    for group in cluster.groups:
        for database in group.databases.values():
            database.items.create("extra-7")
    cluster.start()
    source = cluster.groups[0]
    store = source.database(source.available_delegates()[0]).items
    expected = reference.copy_list(store, cluster.routing, KeyRange(0, 60))
    assert "extra-7" in expected
    copied = []
    copy_chunk = migration_module.Migration._copy_chunk

    def recording_copy_chunk(self, chunk, versions_seen):
        copied.extend(chunk)
        return (yield from copy_chunk(self, chunk, versions_seen))

    monkeypatch.setattr(migration_module.Migration, "_copy_chunk",
                        recording_copy_chunk)
    driver = cluster.migrate(0, destination_group=1)
    cluster.run(until=10_000)
    assert driver.value.completed
    assert copied == expected
    assert driver.value.keys_copied == 61


def test_an_ownership_change_routes_no_key_for_the_tables(monkeypatch):
    # 65,536 items on a range table: building the generator, a split, a
    # migration and the next program route only the keys programs route
    # (each single-partition program routes its first key), and no
    # snapshot's group memo holds any other key.
    routed = []
    position_of_key = routing_module.position_of_key

    def counting_position_of_key(key, slots):
        routed.append(key)
        return position_of_key(key, slots)

    monkeypatch.setattr(routing_module, "position_of_key",
                        counting_position_of_key)
    table = RoutingTable.even_ranges(4, 65_536)
    generator = make_generator(table, 0.6, items=65_536)
    snapshots = [table.snapshot()]
    assert routed == []
    programs = [generator.next_program()]
    table.split(0)
    snapshots.append(table.snapshot())
    programs.append(generator.next_program())
    table.migrate(0, destination_group=3)
    snapshots.append(table.snapshot())
    programs.append(generator.next_program())
    first_keys = {program.operations[0].key for program in programs}
    assert set(routed) <= first_keys
    assert len(routed) == len(set(routed))
    for snapshot in snapshots:
        assert set(snapshot._group_cache) <= first_keys

