"""Benchmark for the partitioned replication subsystem.

Two artefacts are produced:

* the **partition-scaling curve**: committed throughput and response-time
  percentiles at a fixed offered load as the keyspace is sharded across 1, 2,
  4 and 8 replica groups — the scalability axis the single-group paper never
  explored.  The acceptance check is that 4 partitions sustain a pure
  single-partition workload at measurably higher throughput than 1 partition.
* the **cross-partition cost**: the same 4-partition system with a growing
  fraction of transactions spanning two shards, showing the two-phase-commit
  tax on throughput and latency.
"""

from __future__ import annotations

from repro.experiments import (partition_sweep, render_partition_sweep,
                               run_partition_point)

from conftest import write_report

PARTITION_COUNTS = (1, 2, 4, 8)
LOAD_TPS = 120.0
CROSS_FRACTIONS = (0.0, 0.1, 0.3)


def test_partition_throughput_scaling(benchmark):
    """Sharding past the single broadcast domain: throughput vs. partitions."""
    points = benchmark.pedantic(
        partition_sweep,
        kwargs=dict(partition_counts=PARTITION_COUNTS, load_tps=LOAD_TPS),
        rounds=1, iterations=1)
    throughputs = {point.partition_count: point.achieved_throughput_tps
                   for point in points}
    # The acceptance bar: 4 independent groups beat 1 group decisively on a
    # pure single-partition workload at a load that saturates one group.
    assert throughputs[4] > 1.5 * throughputs[1]
    # And the curve keeps rising through 8 partitions.
    assert throughputs[8] > throughputs[4]
    write_report("partition_scaling", render_partition_sweep(points))


def test_cross_partition_cost(benchmark):
    """The 2PC tax: throughput / latency vs. cross-partition fraction."""
    def sweep():
        return [run_partition_point(partition_count=4, load_tps=LOAD_TPS,
                                    cross_partition_probability=fraction)
                for fraction in CROSS_FRACTIONS]

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    pure, _light, heavy = points
    assert pure.cross.measured_commits == 0
    assert heavy.cross.measured_commits > 0
    # Cross-partition transactions introduce a failure mode the fast path
    # does not have: the optimistic prepare can be invalidated between the
    # branches' read phases and vote collection.
    assert heavy.cross.abort_reasons.get(
        "xpartition-validation", 0) > 0
    # And the 2PC tax is paid in *work amplification*, not client latency
    # (branch read phases run in parallel on two delegates): one committed
    # cross-partition transaction costs branch commits on every server of
    # two replica groups plus a forced decision log, so the per-commit local
    # work is strictly higher than in the pure single-partition workload.
    def work_per_commit(point):
        local_work = sum(point.per_partition_commits.values())
        return local_work / point.statistics.measured_commits
    assert work_per_commit(heavy) > work_per_commit(pure)
    write_report("partition_cross_cost", render_partition_sweep(points))
