"""Benchmark: the full partitioned failure-injection matrix (Tables 2/3).

Runs every (technique, crash pattern) cell of the partitioned matrix — the
single-group Table 2/3 patterns replayed inside one shard, the 2PC
coordinator crashes on either side of the forced decision record, and the
three mid-migration crash points — and enforces the acceptance bars of the
partitioned failure-injection ISSUE:

* at least five partitioned crash patterns run, including a whole-shard
  outage, a coordinator crash and two mid-migration crash points;
* zero soundness violations: no cell predicted "No Transaction Loss" ever
  observes a loss, and every cell's invariants (2PC atomicity, every client
  answered, routing-map crash consistency, post-pattern availability) hold;
* at least one predicted-possible-loss cell demonstrates a concrete losing
  schedule, and 2-safe never loses anywhere.
"""

from __future__ import annotations

from repro.experiments import (PARTITIONED_CRASH_PATTERNS, demonstrated,
                               missing_pattern_classes,
                               run_partitioned_failure_matrix, violations)


def test_partitioned_failure_matrix_is_sound_and_demonstrates(benchmark):
    entries = benchmark.pedantic(
        lambda: run_partitioned_failure_matrix(seed=2), rounds=1,
        iterations=1)

    # Coverage: all five techniques over the full pattern taxonomy.
    assert len(entries) == 5 * len(PARTITIONED_CRASH_PATTERNS)
    assert len({entry.crash_pattern for entry in entries}) >= 5
    assert missing_pattern_classes(entries) == []

    # Soundness: no "No Transaction Loss" cell lost, no invariant broke.
    assert violations(entries) == []

    # Demonstration: the possible-loss cells that should lose actually do.
    losing = {(entry.technique, entry.crash_pattern)
              for entry in demonstrated(entries)}
    assert ("group-safe", "shard-outage") in losing
    assert ("group-safe", "shard-outage-recover-all") in losing
    assert ("group-1-safe", "shard-outage") in losing
    assert ("1-safe", "shard-delegate") in losing
    assert not any(technique == "2-safe" for technique, _ in losing)

    # The contained-outage dividend: every cell's unaffected shards kept
    # serving while the pattern ran.
    assert all(entry.outcome.fresh_commit_ok for entry in entries)
