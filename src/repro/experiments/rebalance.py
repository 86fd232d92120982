"""Rebalance experiment: live migration of a hot Zipf head under load.

The Zipf extension of the workload model interacts badly with range
sharding: the hot head of the keyspace (ranks 1, 2, 3 …) all lands on
partition 0, which saturates while the tail partitions idle — the ROADMAP
"Zipf skew × range sharding" item.  The epoch-versioned routing table fixes
this *online*: :meth:`~repro.partition.cluster.PartitionedCluster.rebalance`
splits the hot shard at its access-weighted median and migrates the head to
the least-loaded group while the open-loop driver keeps submitting.

This experiment drives the same seeded workload twice — once with the
static epoch-0 layout, once rebalancing mid-run — and measures committed
throughput in three windows (before / during / after the migration), the
load share of the formerly hot group, and the migration protocol's own
telemetry (copy sizes, fence duration, forwarded dual-writes).  A
commit-integrity audit checks the acceptance property of live migration:
no client-visible commit is lost and none is duplicated across groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.audit import ConfirmedWrite, audit_writes
from ..partition.cluster import PartitionedCluster
from ..partition.migration import MigrationReport
from ..partition.stats import PartitionedRunStatistics, collect_statistics
from ..partition.workload import (PartitionedOpenLoopClients,
                                  _PartitionedClientBase)
from ..workload.params import SimulationParameters

#: Default measurement windows (ms): warm-up, rebalance trigger, settle.
DEFAULT_WARMUP_MS = 2_000.0
DEFAULT_REBALANCE_AT_MS = 6_000.0
DEFAULT_SETTLE_MS = 9_000.0
DEFAULT_DURATION_MS = 16_000.0


@dataclass
class RebalanceOutcome:
    """One run of the rebalance experiment (static or live-rebalanced)."""

    rebalanced: bool
    statistics: PartitionedRunStatistics
    #: Committed throughput (tps) in the three measurement windows.
    before_tput: float = 0.0
    during_tput: float = 0.0
    after_tput: float = 0.0
    #: Fraction of window commits served by the initially hot group 0.
    hot_share_before: float = 0.0
    hot_share_after: float = 0.0
    migration: Optional[MigrationReport] = None
    #: Commit-integrity audit: empty means zero lost / duplicated commits.
    audit_failures: List[str] = field(default_factory=list)
    wrong_epoch_retries: int = 0

    @property
    def audit_ok(self) -> bool:
        """True when the per-key commit audit found nothing."""
        return not self.audit_failures


def _group_of_result(result) -> int:
    """Group that answered a committed fast-path result (the servers of a
    partitioned cluster are named ``p<group>.s<n>``)."""
    return int(result.delegate[1:].partition(".")[0])


def window_commits(clients: _PartitionedClientBase, start: float,
                   end: float, hot_group: int = 0) -> Tuple[int, int]:
    """(committed, committed-on-``hot_group``) responses in ``[start, end)``."""
    total = 0
    on_hot = 0
    for population in (clients.single_results, clients.warmup_single_results):
        for result in population:
            if result.committed and start <= result.responded_at < end:
                total += 1
                if _group_of_result(result) == hot_group:
                    on_hot += 1
    for population in (clients.cross_results, clients.warmup_cross_results):
        for outcome in population:
            if outcome.committed and start <= outcome.responded_at < end:
                total += 1
                if hot_group in outcome.partitions:
                    on_hot += 1
    return total, on_hot


def audit_commit_integrity(cluster: PartitionedCluster,
                           clients: _PartitionedClientBase) -> List[str]:
    """Per-key / per-transaction commit audit across a (re)balanced run.

    Checks, over every client-visible result including warm-up:

    * **nothing lost, nothing duplicated** — every committed fast-path
      transaction and every committed cross-partition branch passes
      :func:`repro.core.audit.audit_writes` on the group that answered it
      (audited per transaction, not per key: under load later writers
      overwrite the values; dual-written *values* legitimately exist on both
      sides of a migration, but only as internal migration transactions);
    * **per-key provenance** — for every key of every completed migration,
      the value now served by the new owner was written by a known writer:
      a committed client transaction, a 2PC branch install, or the migration
      machinery itself.  A value from an uncommitted or unknown writer means
      the copy protocol leaked.

    Returns a list of human-readable failures (empty = audit passed).
    """
    writes = [ConfirmedWrite(result.txn_id, _group_of_result(result))
              for result in (list(clients.single_results)
                             + list(clients.warmup_single_results))
              if result.committed
              and not result.txn_id.startswith("rejected:")]
    writes += [ConfirmedWrite(branch.txn_id, branch.partition_id)
               for outcome in (list(clients.cross_results)
                               + list(clients.warmup_cross_results))
               if outcome.committed
               for branch in outcome.branches if branch.txn_id is not None]
    failures = [str(finding)
                for finding in audit_writes(cluster.groups, writes)]

    allowed = ({write.txn_id for write in writes}
               | cluster.coordinator.branch_txn_ids
               | cluster.migration_txn_ids)
    for report in cluster.migration_reports:
        if not report.completed:
            continue
        group = cluster.group(report.destination_group)
        up_servers = group.up_servers()
        if not up_servers:
            continue
        database = group.database(up_servers[0])
        for key in database.items.keys():
            if not report.key_range.contains(cluster.routing.position_of(key)):
                continue
            writer = database.items.committed(key).writer
            if writer is not None and writer not in allowed:
                failures.append(f"unknown writer {writer!r} for migrated "
                                f"key {key!r}")
        if not report.verified:
            failures.append(f"migration {report.key_range!r} completed "
                            f"without passing its copy verification")
    return failures


def run_rebalance_experiment(rebalance: bool = True,
                             technique: str = "group-safe",
                             partitions: int = 4,
                             items: int = 400,
                             load_tps: float = 150.0,
                             zipf_skew: float = 1.1,
                             cross_partition_probability: float = 0.05,
                             warmup_ms: float = DEFAULT_WARMUP_MS,
                             rebalance_at_ms: float = DEFAULT_REBALANCE_AT_MS,
                             settle_ms: float = DEFAULT_SETTLE_MS,
                             duration_ms: float = DEFAULT_DURATION_MS,
                             seed: int = 33,
                             params: Optional[SimulationParameters] = None
                             ) -> RebalanceOutcome:
    """Drive one (optionally live-rebalanced) skewed run and summarise it.

    Range sharding concentrates the Zipf head on group 0; at
    ``rebalance_at_ms`` the rebalanced run splits the hot shard at its
    observed access median and migrates the head to the coolest group — all
    under sustained open-loop load.  The static run is the same seeded
    workload without the move.
    """
    parameters = params or SimulationParameters.small(server_count=3,
                                                      item_count=items)
    parameters = parameters.with_overrides(
        partition_count=partitions, zipf_skew=zipf_skew,
        cross_partition_probability=cross_partition_probability)
    cluster = PartitionedCluster(technique, params=parameters, seed=seed,
                                 strategy="range")
    cluster.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=load_tps,
                                         warmup=warmup_ms)
    clients.start()
    cluster.run(until=rebalance_at_ms)
    if rebalance:
        cluster.rebalance()
    cluster.run(until=duration_ms)

    statistics = collect_statistics(clients,
                                    duration_ms=duration_ms - warmup_ms)
    outcome = RebalanceOutcome(rebalanced=rebalance, statistics=statistics)
    before, before_hot = window_commits(clients, warmup_ms, rebalance_at_ms)
    during, _ = window_commits(clients, rebalance_at_ms, settle_ms)
    after, after_hot = window_commits(clients, settle_ms, duration_ms)
    outcome.before_tput = before / ((rebalance_at_ms - warmup_ms) / 1000.0)
    outcome.during_tput = during / ((settle_ms - rebalance_at_ms) / 1000.0)
    outcome.after_tput = after / ((duration_ms - settle_ms) / 1000.0)
    outcome.hot_share_before = before_hot / before if before else 0.0
    outcome.hot_share_after = after_hot / after if after else 0.0
    if cluster.migration_reports:
        outcome.migration = cluster.migration_reports[0]
    outcome.audit_failures = audit_commit_integrity(cluster, clients)
    outcome.wrong_epoch_retries = cluster.router.wrong_epoch_retries
    return outcome


def render_rebalance_report(static: RebalanceOutcome,
                            rebalanced: RebalanceOutcome) -> str:
    """Text report comparing the static and the live-rebalanced run."""
    lines = [
        "Live rebalancing of a Zipf hot head (range sharding, same seed)",
        "",
        f"{'':>24} | {'static':>10} | {'rebalanced':>10}",
        "-" * 50,
    ]

    def row(label: str, static_value: str, rebalanced_value: str) -> None:
        lines.append(f"{label:>24} | {static_value:>10} | "
                     f"{rebalanced_value:>10}")

    row("before tput (tps)", f"{static.before_tput:.1f}",
        f"{rebalanced.before_tput:.1f}")
    row("during tput (tps)", f"{static.during_tput:.1f}",
        f"{rebalanced.during_tput:.1f}")
    row("after tput (tps)", f"{static.after_tput:.1f}",
        f"{rebalanced.after_tput:.1f}")
    row("hot-group share before", f"{static.hot_share_before:.1%}",
        f"{rebalanced.hot_share_before:.1%}")
    row("hot-group share after", f"{static.hot_share_after:.1%}",
        f"{rebalanced.hot_share_after:.1%}")
    row("wrong-epoch retries", f"{static.wrong_epoch_retries}",
        f"{rebalanced.wrong_epoch_retries}")
    row("audit", "ok" if static.audit_ok else "FAILED",
        "ok" if rebalanced.audit_ok else "FAILED")
    migration = rebalanced.migration
    if migration is not None:
        lines += [
            "",
            f"migration: range {migration.key_range!r} "
            f"g{migration.source_group} -> g{migration.destination_group} "
            f"epoch {migration.epoch}",
            f"  warm copy {migration.keys_copied} keys, delta "
            f"{migration.delta_keys_copied} keys, "
            f"{migration.forwarded_writes} dual-writes forwarded",
            f"  copy {migration.copy_duration_ms:.0f} ms in "
            f"{migration.copy_chunks} chunks "
            f"(concurrency {migration.copy_concurrency}, peak "
            f"{migration.copy_inflight_peak} in flight, "
            f"{migration.throttle_waits} throttle waits, "
            f"{migration.throttle_wait_ms:.0f} ms throttled)",
            f"  total {migration.duration_ms:.0f} ms, write fence "
            f"{migration.fence_duration_ms:.0f} ms, verified="
            f"{migration.verified}",
        ]
    return "\n".join(lines)
