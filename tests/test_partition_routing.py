"""The epoch-versioned routing table: splits, migrations, recovery."""

from __future__ import annotations

import random
import zlib
from collections import Counter

import pytest

from repro.db.items import item_keys
from repro.db.wal import LogRecord, LogRecordType
from repro.partition import (KeyRange, RoutingTable, ShardAssignment,
                             WrongEpochError)
from repro.partition.routing import position_of_key
from tests.reference_shard_loads import IncrementalLoadTable


def range_table(groups=4, items=100):
    return RoutingTable.even_ranges(groups, items)


# ---------------------------------------------------------------- construction
def test_range_table_reproduces_the_seed_range_placement():
    # The retired RangePartitioner placed item index i of an item_count-item
    # database into partition ``i * partition_count // item_count``; the
    # epoch-0 range table must keep that mapping bit-for-bit.
    table = range_table(4, 100)
    for index in range(100):
        key = f"item-{index}"
        assert table.partition_of(key) == index * 4 // 100
    assert table.epoch == 0
    assert len(table.assignments) == 4


def test_position_of_key_clamps_item_indexes_and_hashes_other_keys():
    assert [position_of_key(f"item-{index}", 100)
            for index in (0, 42, 99, 100, 5_000)] == [0, 42, 99, 99, 99]
    # A numeric suffix after any prefix counts as the item index.
    assert position_of_key("extra-7", 100) == 7
    # Keys without one take a stable crc32 position inside the slot space.
    for key in ("zz", "created3", "item-", "a-b"):
        position = position_of_key(key, 100)
        assert position == zlib.crc32(key.encode("utf-8")) % 100
        assert 0 <= position < 100
        assert range_table(4, 100).partition_of(key) == position * 4 // 100


def test_table_validates_cover():
    with pytest.raises(ValueError):
        RoutingTable.even_ranges(8, item_count=4)
    with pytest.raises(ValueError):
        # Gap between the two shards.
        RoutingTable([ShardAssignment(KeyRange(0, 40), 0),
                      ShardAssignment(KeyRange(50, 100), 1)],
                     slots=100, group_count=2)
    with pytest.raises(ValueError):
        # Unknown owning group.
        RoutingTable([ShardAssignment(KeyRange(0, 100), 5)],
                     slots=100, group_count=2)
    with pytest.raises(ValueError):
        KeyRange(10, 10)


# ---------------------------------------------------------------- split
def test_split_bumps_epoch_and_keeps_owner_and_cover():
    table = range_table(2, 100)
    epoch = table.split(0, at=10)
    assert epoch == table.epoch == 1
    assert len(table.assignments) == 3
    assert [assignment.key_range.lo for assignment in table.assignments] == \
        [0, 10, 50]
    # Both halves keep the owner; every key still routes to group 0.
    for index in range(50):
        assert table.partition_of(f"item-{index}") == 0


def test_split_validation():
    table = range_table(2, 100)
    table.split(0, at=1)
    with pytest.raises(ValueError):
        table.split(0)                      # width-1 ranges cannot split
    with pytest.raises(ValueError):
        table.split(0, at=0)                # boundary split is a no-op
    with pytest.raises(ValueError):
        table.split(0, at=80)               # outside the shard


# ---------------------------------------------------------------- migrate
def test_migrate_reassigns_owner_and_bumps_epoch():
    table = range_table(2, 100)
    table.migrate(0, destination_group=1)
    assert table.epoch == 1
    assert table.partition_of("item-10") == 1
    with pytest.raises(ValueError):
        table.migrate(0, destination_group=1)   # already there
    with pytest.raises(ValueError):
        table.migrate(0, destination_group=7)   # unknown group


def test_snapshots_are_immutable_views():
    table = range_table(2, 100)
    before = table.snapshot()
    table.migrate(0, destination_group=1)
    after = table.snapshot()
    assert before.epoch == 0 and after.epoch == 1
    assert before.partition_of("item-10") == 0
    assert after.partition_of("item-10") == 1


# ---------------------------------------------------------------- fencing
def test_fence_blocks_mutations_and_reports_keys():
    table = range_table(2, 100)
    fenced = KeyRange(0, 50)
    table.fence(fenced)
    assert table.has_fences
    assert table.is_fenced(["item-10"])
    assert not table.is_fenced(["item-90"])
    with pytest.raises(WrongEpochError):
        table.split(0, at=10)
    table.unfence(fenced)
    assert not table.has_fences
    assert table.split(0, at=10) == 1


# ---------------------------------------------------------------- hot-spot tools
def test_hot_split_position_tracks_the_access_mass():
    table = range_table(2, 100)
    # A Zipf-ish head: positions 0..4 get almost all the traffic.
    for position in range(5):
        for _ in range(100 - position * 10):
            table.note_access(f"item-{position}")
    for position in range(5, 50):
        table.note_access(f"item-{position}")
    split = table.hot_split_position(0)
    assert split is not None and 0 < split <= 5
    assert table.hottest_shard() == 0
    assert table.coolest_group(exclude=[0]) == 1


def test_hot_split_position_without_data_is_none():
    table = range_table(2, 100)
    assert table.hot_split_position(0) is None


def test_hot_split_clamps_a_maximally_skewed_shard():
    # All the mass on the shard's last position used to push the weighted
    # median to `hi` and silently fall back to the load-free midpoint; the
    # split must land on the largest legal split point instead.
    table = range_table(2, 100)
    for _ in range(50):
        table.note_access("item-49")       # last position of shard [0, 50)
    assert table.hot_split_position(0) == 49


# ---------------------------------------------------------------- access accounting
def test_access_counters_are_cumulative_with_decay_disabled():
    table = range_table(2, 100)
    for _ in range(3):
        table.note_access("item-1")
    # Nothing decays the counters: they are all-time totals.
    assert table.access_counts[1] == 3


def shard_sums(table):
    """Each shard's share of the recorded accesses, in shard order."""
    return [sum(count for position, count in table.access_counts.items()
                if assignment.key_range.contains(position))
            for assignment in table.assignments]


def test_shard_totals_stay_consistent_across_reshaping():
    table = range_table(4, 100)
    accesses = Counter()

    def access(position):
        table.note_access(f"item-{position}")
        accesses[position] += 1

    def check():
        expected = [sum(count for position, count in accesses.items()
                        if assignment.key_range.contains(position))
                    for assignment in table.assignments]
        assert shard_sums(table) == expected
        assert table.hottest_shard() == expected.index(max(expected))

    for position in range(0, 100, 3):
        for _ in range(position % 7 + 1):
            access(position)
    check()
    table.split(0, at=10)
    check()
    table.migrate(2, destination_group=3)
    check()
    access(5)
    check()


def test_access_counts_growth_is_capped_by_cold_aggregation():
    table = range_table(2, 1_000)
    table.max_tracked_positions = 16
    for position in range(1_000):
        table.note_access(f"item-{position}")
    for _ in range(100):
        table.note_access("item-3")
    assert len(table.access_counts) <= 16 + len(table.assignments)
    # Folding the cold tail never loses mass: per-shard totals stay exact.
    assert sum(shard_sums(table)) == 1_100
    assert shard_sums(table)[0] == 600
    # The hot position survives compaction at full resolution.
    assert table.access_counts[3] >= 100
    # The counters hold the same mass as the totals, including the access
    # that triggered each compaction, so a split rebuilding the totals from
    # the counters keeps them exact.
    assert sum(table.access_counts.values()) == 1_100
    table.split(0, at=250)
    assert sum(table.access_counts.values()) == 1_100
    assert sum(shard_sums(table)) == 1_100
    assert shard_sums(table)[0] + shard_sums(table)[1] == 600


def assert_same_loads(table, reference):
    assert list(table.access_counts.items()) == \
        list(reference.access_counts.items())
    assert table.assignments == reference.assignments
    assert table.hottest_shard() == reference.hottest_shard()
    for exclude in [()] + [(group,) for group in range(table.group_count)]:
        assert table.coolest_group(exclude=exclude) == \
            reference.coolest_group(exclude=exclude)
    for shard in range(len(table.assignments)):
        assert table.hot_split_position(shard) == \
            reference.hot_split_position(shard)


def drive_against_the_incremental_reference(seeds, max_tracked_positions):
    """Replay seeded accesses, splits and migrations on a table and on the
    reference that keeps per-shard totals on every access, comparing their
    loads after each step; returns (compactions, reshapes)."""
    compactions = reshapes = 0
    for seed in seeds:
        rng = random.Random(seed)
        tables = (RoutingTable.even_ranges(3, 300),
                  IncrementalLoadTable.even_ranges(3, 300))
        table = tables[0]
        for each in tables:
            each.max_tracked_positions = max_tracked_positions
        for _ in range(600):
            roll = rng.random()
            shard = rng.randrange(len(table.assignments))
            if roll < 0.9:
                key = (f"item-{int(300 * rng.random() ** 3)}"
                       if roll < 0.85 else f"created{rng.randrange(40)}")
                counts = table.access_counts
                for each in tables:
                    each.note_access(key)
                compactions += table.access_counts is not counts
            elif roll < 0.95:
                if table.range_of(shard).width < 2:
                    continue
                at = table.hot_split_position(shard)
                for each in tables:
                    each.split(shard, at=at)
                reshapes += 1
            else:
                owner = table.assignments[shard].group_id
                destination = rng.choice(
                    [group for group in range(3) if group != owner])
                for each in tables:
                    each.migrate(shard, destination)
                reshapes += 1
            assert_same_loads(*tables)
    return compactions, reshapes


def test_derived_loads_match_the_incremental_reference():
    # One seeded sequence of skewed accesses (a few to keys without an
    # item index), splits at the access-weighted median and migrations
    # drives the table and the reference; 16 tracked positions make
    # compaction fire often.
    compactions, reshapes = drive_against_the_incremental_reference(
        range(3), max_tracked_positions=16)
    assert compactions > 10 and reshapes > 50


def test_derived_loads_match_the_incremental_reference_without_compaction():
    # The default cap is never reached on a 300-position table: every
    # position keeps its own counter and the sums see them all.
    compactions, reshapes = drive_against_the_incremental_reference(
        range(3, 6), max_tracked_positions=4096)
    assert compactions == 0 and reshapes > 50


def test_coolest_group_refuses_to_exclude_every_group():
    table = range_table(2, 100)
    table.note_access("item-1")
    assert table.coolest_group(exclude=[0]) == 1
    with pytest.raises(ValueError):
        table.coolest_group(exclude=[0, 1])


# ---------------------------------------------------------------- recovery
def epoch_record(payload):
    return LogRecord(LogRecordType.EPOCH, f"epoch-{payload['epoch']}",
                     payload=payload)


def test_payload_roundtrip_through_recover():
    table = range_table(2, 100)
    table.split(0, at=10)
    table.migrate(0, destination_group=1)
    recovered = RoutingTable.recover([epoch_record(table.as_payload())],
                                     group_count=2, item_count=100)
    assert recovered.epoch == table.epoch
    assert recovered.assignments == table.assignments
    assert recovered.partition_of("item-5") == 1


def test_recover_picks_the_highest_epoch():
    table = range_table(2, 100)
    old = table.as_payload()
    table.migrate(0, destination_group=1)
    new = table.as_payload()
    recovered = RoutingTable.recover(
        [epoch_record(new), epoch_record(old)],
        group_count=2, item_count=100)
    assert recovered.epoch == new["epoch"]
    assert recovered.partition_of("item-10") == 1


def test_recover_reads_a_payload_that_still_names_its_strategy():
    # EPOCH payloads no longer carry a placement name; one logged when they
    # did (``"strategy": "range"``) still recovers to the same map.
    table = range_table(2, 100)
    table.split(1, at=70)
    table.migrate(2, destination_group=0)
    payload = table.as_payload()
    assert sorted(payload) == ["assignments", "epoch", "slots"]
    recovered = RoutingTable.recover(
        [epoch_record(dict(payload, strategy="range"))],
        group_count=2, item_count=100)
    assert recovered.epoch == table.epoch
    assert recovered.assignments == table.assignments


def test_recover_without_records_falls_back_to_even_ranges():
    recovered = RoutingTable.recover([], group_count=4, item_count=100)
    assert recovered.epoch == 0
    assert recovered.assignments == range_table(4, 100).assignments


def test_payload_after_migrate_is_the_write_ahead_image():
    table = range_table(2, 100)
    payload = table.payload_after_migrate(KeyRange(0, 50), 1)
    assert payload["epoch"] == 1
    # The table itself has not moved yet (write-ahead discipline).
    assert table.epoch == 0
    assert table.partition_of("item-10") == 0
    recovered = RoutingTable.recover([epoch_record(payload)],
                                     group_count=2, item_count=100)
    assert recovered.partition_of("item-10") == 1


# ---------------------------------------------------------------- protocol
def test_table_selector_agrees_with_snapshot_routing():
    table = range_table(4, 100)
    table.split(1)
    keys = item_keys(100)
    snapshot = table.snapshot()
    for group in range(4):
        key_ranges = [assignment.key_range for assignment in table.assignments
                      if assignment.group_id == group]
        pick = table.selector(key_ranges)
        assert list(pick(keys)) == \
            [key for key in keys if snapshot.partition_of(key) == group]
        # One selection picks from any sequence in key order.
        assert list(pick(range(len(keys)))) == \
            [rank for rank, key in enumerate(keys)
             if snapshot.partition_of(key) == group]
