"""Static routing-table layouts and the transaction router."""

from __future__ import annotations

import pytest

from repro.db.operations import make_program
from repro.partition import RoutingTable, TransactionRouter


# ---------------------------------------------------------------- static layouts
def test_hash_layout_is_deterministic_and_total():
    table = RoutingTable.from_strategy("hash", 4)
    keys = [f"item-{index}" for index in range(200)]
    first = [table.partition_of(key) for key in keys]
    second = [table.partition_of(key) for key in keys]
    assert first == second
    assert all(0 <= pid < 4 for pid in first)
    # 200 keys over 4 hash buckets: every partition owns something.
    assert set(first) == {0, 1, 2, 3}


def test_range_layout_keeps_ranges_contiguous():
    table = RoutingTable.from_strategy("range", 4, item_count=100)
    assignments = [table.partition_of(f"item-{index}")
                   for index in range(100)]
    assert assignments == sorted(assignments)
    assert assignments[0] == 0 and assignments[-1] == 3
    for pid in range(4):
        assert assignments.count(pid) == 25


def test_range_layout_handles_non_conventional_keys():
    table = RoutingTable.from_strategy("range", 3, item_count=90)
    # Keys without a numeric suffix still get a stable home.
    assert table.partition_of("x") == table.partition_of("x")
    assert 0 <= table.partition_of("x") < 3
    # Out-of-range indices clamp into the last partition.
    assert table.partition_of("item-500") == 2


def test_partition_keys_groups_without_losing_keys():
    table = RoutingTable.from_strategy("hash", 3)
    keys = [f"item-{index}" for index in range(60)]
    grouped = table.partition_keys(keys)
    regrouped = [key for pid in sorted(grouped) for key in grouped[pid]]
    assert sorted(regrouped) == sorted(keys)


def test_layout_validation():
    with pytest.raises(ValueError):
        RoutingTable.from_strategy("hash", 0)
    with pytest.raises(ValueError):
        RoutingTable.from_strategy("range", 8, item_count=4)
    with pytest.raises(ValueError):
        RoutingTable.from_strategy("consistent-hashing", 4)


# ---------------------------------------------------------------- router
def router_over_ranges():
    return TransactionRouter(
        RoutingTable.from_strategy("range", 4, item_count=100))


def test_router_classifies_single_partition():
    router = router_over_ranges()
    program = make_program([("r", "item-1"), ("w", "item-7", "v")])
    assert router.partitions_of(program) == [0]
    assert router.is_single_partition(program)


def test_router_classifies_cross_partition():
    router = router_over_ranges()
    program = make_program([("r", "item-1"), ("w", "item-80", "v")])
    assert router.partitions_of(program) == [0, 3]
    assert not router.is_single_partition(program)


def test_router_counters_update_on_classify():
    router = router_over_ranges()
    router.classify(make_program([("r", "item-1")]))
    router.classify(make_program([("r", "item-1"), ("w", "item-99", "v")]))
    assert router.single_partition_count == 1
    assert router.cross_partition_count == 1


def test_split_preserves_order_and_client():
    router = router_over_ranges()
    program = make_program([("r", "item-1"), ("w", "item-80", "a"),
                            ("w", "item-2", "b"), ("r", "item-90")],
                           client="alice")
    branches = router.split(program)
    assert sorted(branches) == [0, 3]
    branch0, branch3 = branches[0], branches[3]
    assert [op.key for op in branch0.operations] == ["item-1", "item-2"]
    assert [op.key for op in branch3.operations] == ["item-80", "item-90"]
    assert branch0.client == "alice" and branch3.client == "alice"
    # Branches are independent programs with their own identifiers.
    assert branch0.program_id != program.program_id
    assert branch0.program_id != branch3.program_id
