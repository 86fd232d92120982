"""Benchmark: live migration of a hot Zipf head under sustained load.

The headline property of the epoch-versioned routing table: with Zipf skew
over range sharding, the hot head of the keyspace saturates partition 0
while the tail partitions idle.  ``rebalance()`` splits the hot shard at
its access-weighted median and migrates the head to the coolest group —
**while the open-loop driver keeps submitting** — and the cluster's
committed throughput recovers.

Acceptance bars (the ISSUE acceptance criteria):

* the migration completes under load (commits keep flowing during it);
* zero lost and zero duplicated commits, verified by the per-key commit
  audit of :func:`repro.experiments.audit_commit_integrity`;
* post-rebalance committed throughput — system-wide *and* on the formerly
  hot shard — beats the static-range baseline of the identically seeded
  run.
"""

from __future__ import annotations

from repro.experiments import (render_rebalance_report,
                               run_rebalance_experiment)
from repro.experiments.rebalance import (DEFAULT_REBALANCE_AT_MS,
                                         DEFAULT_SETTLE_MS)

from conftest import write_report


def both_runs():
    static = run_rebalance_experiment(rebalance=False)
    rebalanced = run_rebalance_experiment(rebalance=True)
    return static, rebalanced


def test_live_rebalance_of_a_hot_zipf_head(benchmark):
    static, rebalanced = benchmark.pedantic(both_runs, rounds=1, iterations=1)

    # Same seed, same workload: the runs are identical until the move.
    assert rebalanced.before_tput == static.before_tput
    assert rebalanced.hot_share_before == static.hot_share_before

    # The migration completed while the driver kept submitting.
    migration = rebalanced.migration
    assert migration is not None and migration.completed
    assert migration.verified
    assert DEFAULT_REBALANCE_AT_MS <= migration.completed_at \
        <= DEFAULT_SETTLE_MS
    assert rebalanced.during_migration_commits > 0
    assert rebalanced.epoch_commits.get(migration.epoch, 0) > 0

    # Zero lost / duplicated commits (per-key commit audit), both runs.
    assert static.audit_ok, static.audit_failures
    assert rebalanced.audit_ok, rebalanced.audit_failures

    # Skew repair: post-rebalance committed throughput beats the static
    # baseline decisively — system-wide and on the formerly hot shard
    # (group 0 still serves the warm middle of the range, but freed of the
    # head it stops being the bottleneck).
    assert rebalanced.after_tput > 1.3 * static.after_tput
    hot_after_static = static.after_tput * static.hot_share_after
    hot_after_rebalanced = (rebalanced.after_tput *
                            rebalanced.hot_share_after)
    assert hot_after_rebalanced > 1.3 * hot_after_static

    write_report("rebalance_live_migration",
                 render_rebalance_report(static, rebalanced))
