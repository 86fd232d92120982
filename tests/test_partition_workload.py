"""Partition-aware workload generation: skew, spanning, determinism."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.db.items import item_keys
from repro.partition import (KeyRange, PartitionedWorkloadGenerator,
                             RoutingTable, ShardAssignment, TransactionRouter)
from repro.sim import Simulator
from repro.workload import SimulationParameters, WorkloadGenerator


def programs_signature(generator, count):
    """A comparable rendering of the next ``count`` programs."""
    signature = []
    for _ in range(count):
        program = generator.next_program(client="c")
        signature.append(tuple((op.op_type.value, op.key, op.value)
                               for op in program.operations))
    return signature


# ---------------------------------------------------------------- zipf skew
def test_zipf_skew_is_deterministic_under_fixed_seed():
    params = SimulationParameters.small(item_count=100).with_overrides(
        zipf_skew=1.1)
    first = programs_signature(
        WorkloadGenerator(Simulator(seed=99), params), 30)
    second = programs_signature(
        WorkloadGenerator(Simulator(seed=99), params), 30)
    assert first == second


def test_different_seeds_differ():
    params = SimulationParameters.small(item_count=100).with_overrides(
        zipf_skew=1.1)
    first = programs_signature(
        WorkloadGenerator(Simulator(seed=99), params), 30)
    other = programs_signature(
        WorkloadGenerator(Simulator(seed=100), params), 30)
    assert first != other


def test_zipf_skew_concentrates_accesses():
    params = SimulationParameters.small(item_count=200)
    uniform = WorkloadGenerator(Simulator(seed=5), params)
    skewed = WorkloadGenerator(Simulator(seed=5),
                               params.with_overrides(zipf_skew=1.2))
    counts_uniform: Counter = Counter()
    counts_skewed: Counter = Counter()
    for _ in range(2000):
        counts_uniform[uniform.choose_key()] += 1
        counts_skewed[skewed.choose_key()] += 1
    hot = [f"item-{index}" for index in range(10)]
    hot_uniform = sum(counts_uniform[key] for key in hot)
    hot_skewed = sum(counts_skewed[key] for key in hot)
    # 10/200 items take ~5% of a uniform workload but the bulk of a skewed one.
    assert hot_skewed > 3 * hot_uniform
    assert counts_skewed["item-0"] == counts_skewed.most_common(1)[0][1]


def test_zero_skew_reproduces_the_uniform_draws():
    # Skew 0 is the paper's model: a plain uniform choice over the keyspace
    # on the named item stream, draw for draw.
    generator = WorkloadGenerator(Simulator(seed=3),
                                  SimulationParameters.small(item_count=100))
    uniform = Simulator(seed=3).random.stream("workload.item")
    keys = item_keys(100)
    assert [generator.choose_key() for _ in range(50)] == \
        [uniform.choice(keys) for _ in range(50)]


def test_negative_skew_rejected():
    params = SimulationParameters.small(item_count=10).with_overrides(
        zipf_skew=-0.5)
    with pytest.raises(ValueError):
        WorkloadGenerator(Simulator(seed=1), params)


# ---------------------------------------------------------------- partition spanning
def make_generator(seed=7, cross=0.3, items=120, partitions=4, skew=0.0):
    params = SimulationParameters.small(item_count=items).with_overrides(
        cross_partition_probability=cross, zipf_skew=skew)
    table = RoutingTable.even_ranges(partitions, items)
    return (PartitionedWorkloadGenerator(Simulator(seed=seed), params,
                                         table),
            TransactionRouter(table))


def test_partitioned_generation_is_deterministic():
    first, _ = make_generator(seed=42, cross=0.4, skew=0.9)
    second, _ = make_generator(seed=42, cross=0.4, skew=0.9)
    assert programs_signature(first, 40) == programs_signature(second, 40)


def test_zero_probability_generates_only_single_partition():
    generator, router = make_generator(cross=0.0)
    for _ in range(50):
        assert len(router.partitions_of(generator.next_program())) == 1
    assert generator.cross_partition_generated == 0


def test_full_probability_generates_only_spanning_programs():
    generator, router = make_generator(cross=1.0)
    for _ in range(50):
        program = generator.next_program()
        assert len(router.partitions_of(program)) == 2
    assert generator.single_partition_generated == 0


def test_span_is_respected():
    params = SimulationParameters.small(item_count=120).with_overrides(
        cross_partition_probability=1.0, cross_partition_span=3)
    table = RoutingTable.even_ranges(4, 120)
    generator = PartitionedWorkloadGenerator(Simulator(seed=2), params,
                                             table)
    router = TransactionRouter(table)
    for _ in range(30):
        assert len(router.partitions_of(generator.next_program())) == 3


def test_single_partition_traffic_preserves_the_global_distribution():
    # Sharding must change where keys live, not how often each is accessed:
    # the home partition is drawn from the global key marginal, so under
    # skew the hot item keeps its true Zipf share and hot partitions attract
    # proportionally more transactions.
    from collections import Counter
    params = SimulationParameters.small(item_count=400).with_overrides(
        zipf_skew=1.0)
    table = RoutingTable.even_ranges(8, 400)
    generator = PartitionedWorkloadGenerator(Simulator(seed=2), params,
                                             table)
    key_counts: Counter = Counter()
    partition_counts: Counter = Counter()
    total_ops = 0
    for _ in range(2000):
        program = generator.next_program()
        for op in program.operations:
            key_counts[op.key] += 1
            total_ops += 1
        partition_counts[table.partition_of(
            program.operations[0].key)] += 1
    true_hot_share = 1.0 / sum(1.0 / (rank + 1) for rank in range(400))
    measured_hot_share = key_counts["item-0"] / total_ops
    assert abs(measured_hot_share - true_hot_share) < 0.03
    # Hot-partition imbalance is visible, not flattened to 1/8 each.
    shares = sorted(count / 2000 for count in partition_counts.values())
    assert shares[-1] > 1.5 * shares[0]


def test_every_partition_must_own_items():
    # Group 1's range starts past the last of the 2 items: it owns none.
    params = SimulationParameters.small(item_count=2)
    table = RoutingTable([ShardAssignment(KeyRange(0, 2), 0),
                          ShardAssignment(KeyRange(2, 4), 1)],
                         slots=4, group_count=2)
    with pytest.raises(ValueError):
        PartitionedWorkloadGenerator(Simulator(seed=1), params, table)


# ---------------------------------------------------------------- epoch refresh
def test_generator_follows_ownership_across_an_epoch_change():
    params = SimulationParameters.small(item_count=100).with_overrides(
        cross_partition_probability=0.0)
    table = RoutingTable.even_ranges(2, 100)
    generator = PartitionedWorkloadGenerator(Simulator(seed=4), params, table)
    table.migrate(0, destination_group=1)
    # Every generated single-partition program now routes to group 1 — the
    # generator rebuilt its caches at the new epoch instead of targeting a
    # group that owns nothing.
    for _ in range(20):
        program = generator.next_program()
        owners = {table.partition_of(op.key) for op in program.operations}
        assert owners == {1}


def test_generator_tolerates_emptied_partitions_after_migration():
    from repro.partition import RoutingTable
    params = SimulationParameters.small(item_count=100).with_overrides(
        cross_partition_probability=0.5, cross_partition_span=2)
    table = RoutingTable.even_ranges(2, 100)
    generator = PartitionedWorkloadGenerator(Simulator(seed=4), params, table)
    table.migrate(0, destination_group=1)
    # With a single non-empty partition no cross-partition program can be
    # built; generation degrades to single-partition instead of raising.
    for _ in range(30):
        generator.next_program()
    assert generator.cross_partition_generated == 0
