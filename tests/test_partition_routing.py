"""The epoch-versioned routing table: splits, merges, migrations, recovery."""

from __future__ import annotations

import pytest

import zlib

from repro.db.wal import LogRecord, LogRecordType
from repro.partition import (KeyRange, RoutingTable, ShardAssignment,
                             WrongEpochError)


def range_table(groups=4, items=100):
    return RoutingTable.from_strategy("range", groups, items)


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
    assert table.shard_count == 4


def test_hash_table_reproduces_the_seed_hash_placement():
    # The retired HashPartitioner placed keys by ``crc32(key) % count``.
    table = RoutingTable.from_strategy("hash", 4)
    for index in range(200):
        key = f"item-{index}"
        assert table.partition_of(key) == \
            zlib.crc32(key.encode("utf-8")) % 4


def test_table_validates_cover_and_strategy():
    with pytest.raises(ValueError):
        RoutingTable.from_strategy("consistent-hashing", 4)
    with pytest.raises(ValueError):
        RoutingTable.from_strategy("range", 8, item_count=4)
    with pytest.raises(ValueError):
        # Gap between the two shards.
        RoutingTable([ShardAssignment(KeyRange(0, 40), 0),
                      ShardAssignment(KeyRange(50, 100), 1)],
                     slots=100, strategy="range", group_count=2)
    with pytest.raises(ValueError):
        # Unknown owning group.
        RoutingTable([ShardAssignment(KeyRange(0, 100), 5)],
                     slots=100, strategy="range", group_count=2)
    with pytest.raises(ValueError):
        KeyRange(10, 10)


# ---------------------------------------------------------------- split / merge
def test_split_bumps_epoch_and_keeps_owner_and_cover():
    table = range_table(2, 100)
    epoch = table.split(0, at=10)
    assert epoch == table.epoch == 1
    assert table.shard_count == 3
    assert [assignment.key_range.lo for assignment in table.assignments] == \
        [0, 10, 50]
    # Both halves keep the owner; every key still routes to group 0.
    for index in range(50):
        assert table.partition_of(f"item-{index}") == 0


def test_split_validation():
    table = RoutingTable.from_strategy("hash", 2)
    with pytest.raises(ValueError):
        table.split(0)                      # width-1 hash slots cannot split
    table = range_table(2, 100)
    with pytest.raises(ValueError):
        table.split(0, at=0)                # boundary split is a no-op
    with pytest.raises(ValueError):
        table.split(0, at=80)               # outside the shard


def test_merge_rejoins_adjacent_same_owner_shards():
    table = range_table(2, 100)
    table.split(0, at=10)
    epoch = table.merge(0)
    assert epoch == 2
    assert table.shard_count == 2
    assert table.assignments[0].key_range == KeyRange(0, 50)


def test_merge_refuses_different_owners():
    table = range_table(2, 100)
    with pytest.raises(ValueError):
        table.merge(0)                      # right neighbour belongs to g1
    with pytest.raises(ValueError):
        table.merge(1)                      # no right neighbour


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


def test_install_refuses_stale_epochs():
    table = range_table(2, 100)
    table.split(0, at=10)
    with pytest.raises(WrongEpochError):
        table.install(table.assignments, epoch=0)


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


# ---------------------------------------------------------------- windowed accounting
def test_access_counters_are_cumulative_with_decay_disabled():
    table = range_table(2, 100)
    for _ in range(3):
        table.note_access("item-1")
    # Only a controller's roll_window decays; nothing else does.
    assert table.access_counts[1] == 3
    assert table.windows_rolled == 0


def test_roll_window_decays_counters_and_drops_cold_positions():
    table = range_table(2, 100)
    for _ in range(8):
        table.note_access("item-1")
    table.note_access("item-60")
    table.roll_window()
    assert table.access_counts[1] == 4
    assert 60 not in table.access_counts       # 1 * 0.5 floors to zero
    assert table.windows_rolled == 1
    assert table.shard_accesses() == [4, 0]


def test_decayed_counters_track_the_recent_hot_set():
    # The stale-hotness bug: cumulative counters keep yesterday's hot shard
    # hottest forever.  With windowed decay the signal follows the load.
    table = range_table(2, 100)
    for _ in range(200):
        table.note_access("item-1")            # old hot set on shard 0
    for _ in range(3):
        table.roll_window()
        for _ in range(40):
            table.note_access("item-70")       # new hot set on shard 1
    assert table.hottest_shard() == 1
    assert table.coolest_group() == 0


def test_shard_totals_stay_consistent_across_reshaping():
    table = range_table(4, 100)
    for position in range(0, 100, 3):
        for _ in range(position % 7 + 1):
            table.note_access(f"item-{position}")

    def brute_force():
        return [sum(count for position, count in table.access_counts.items()
                    if assignment.key_range.contains(position))
                for assignment in table.assignments]

    assert table.shard_accesses() == brute_force()
    table.split(0, at=10)
    assert table.shard_accesses() == brute_force()
    table.migrate(2, destination_group=3)
    assert table.shard_accesses() == brute_force()
    table.merge(0)
    assert table.shard_accesses() == brute_force()
    table.note_access("item-5")
    assert table.shard_accesses() == brute_force()


def test_access_counts_growth_is_capped_by_cold_aggregation():
    table = range_table(2, 1_000)
    table.max_tracked_positions = 16
    for position in range(1_000):
        table.note_access(f"item-{position}")
    for _ in range(100):
        table.note_access("item-3")
    assert len(table.access_counts) <= 16 + table.shard_count
    # Folding the cold tail never loses mass: per-shard totals stay exact.
    assert sum(table.shard_accesses()) == 1_100
    assert table.shard_accesses()[0] == 600
    # The hot position survives compaction at full resolution.
    assert table.access_counts[3] >= 100
    # The counters hold the same mass as the totals, including the access
    # that triggered each compaction, so a split rebuilding the totals from
    # the counters keeps them exact.
    assert sum(table.access_counts.values()) == 1_100
    table.split(0, at=250)
    assert sum(table.access_counts.values()) == 1_100
    assert sum(table.shard_accesses()) == 1_100
    assert table.shard_accesses()[0] + table.shard_accesses()[1] == 600


# ---------------------------------------------------------------- recovery
def epoch_record(payload):
    return LogRecord(LogRecordType.EPOCH, f"epoch-{payload['epoch']}",
                     payload=payload)


def test_payload_roundtrip_through_recover():
    table = range_table(2, 100)
    table.split(0, at=10)
    table.migrate(0, destination_group=1)
    recovered = RoutingTable.recover([epoch_record(table.as_payload())],
                                     strategy="range", group_count=2,
                                     item_count=100)
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
        strategy="range", group_count=2, item_count=100)
    assert recovered.epoch == new["epoch"]
    assert recovered.partition_of("item-10") == 1


def test_recover_without_records_falls_back_to_strategy():
    recovered = RoutingTable.recover([], strategy="range", group_count=4,
                                     item_count=100)
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
                                     strategy="range", group_count=2,
                                     item_count=100)
    assert recovered.partition_of("item-10") == 1


# ---------------------------------------------------------------- protocol
def test_table_and_snapshot_agree_on_partition_keys():
    table = range_table(4, 100)
    keys = [f"item-{i}" for i in range(100)]
    assert table.partition_keys(keys) == table.snapshot().partition_keys(keys)
