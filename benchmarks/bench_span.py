"""Benchmark: committed throughput vs. cross-partition span.

A transaction spanning ``span`` partitions costs one optimistic prepare per
branch, one forced decision log, and ``span`` branch installs — each
replicated on every server of its group.  The local work behind one client
commit therefore grows linearly with the span, which is the fundamental
2PC work-amplification argument against wide transactions (the ROADMAP
"multi-span transactions" item).  This sweep measures it directly on a
4-partition cluster at a fixed offered load and 30 % cross-partition
traffic.
"""

from __future__ import annotations

from repro.experiments import (SPAN_VALUES, render_span_sweep, span_sweep,
                               work_per_commit)

from conftest import write_report

PARTITIONS = 4
LOAD_TPS = 60.0
CROSS_FRACTION = 0.3


def test_span_work_amplification(benchmark):
    """2PC work per commit grows linearly with the span; throughput holds."""
    points = benchmark.pedantic(
        span_sweep,
        kwargs=dict(spans=SPAN_VALUES, partition_count=PARTITIONS,
                    load_tps=LOAD_TPS,
                    cross_partition_probability=CROSS_FRACTION),
        rounds=1, iterations=1)
    by_span = {point.cross_partition_span: point for point in points}
    assert sorted(by_span) == [2, 3, 4]
    # Cross-partition traffic actually flows and commits at every span.
    for point in points:
        assert point.cross.measured_commits > 0
    # The amplification is monotone in the span...
    amplification = [work_per_commit(by_span[span]) for span in (2, 3, 4)]
    assert amplification[0] < amplification[1] < amplification[2]
    # ...and roughly linear: each extra branch adds about the same local
    # work (second difference well below the first difference).
    step1 = amplification[1] - amplification[0]
    step2 = amplification[2] - amplification[1]
    assert step1 > 0.3 and step2 > 0.3
    assert abs(step2 - step1) < 0.75 * max(step1, step2)
    write_report("partition_span_cost", render_span_sweep(points))
