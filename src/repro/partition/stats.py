"""Aggregated statistics of a partitioned-cluster run.

:class:`PartitionedRunStatistics` folds the two result kinds — fast-path
:class:`~repro.replication.results.TransactionResult` and coordinated
:class:`~repro.partition.coordinator.CrossPartitionOutcome` — into one
summary, reusing :class:`~repro.replication.results.RunStatistics` for each
population so the percentile / throughput machinery stays in one place.

With the epoch-versioned routing table the summary also tracks the
*rebalancing* axis: commits bucketed by routing epoch, terminations that
happened while a migration was in flight, wrong-epoch submission retries,
and the migration reports themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..core.stats import percentile as _shared_percentile
from ..replication.results import RunStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .cluster import CrashEvent
    from .controller import ControllerStats
    from .migration import MigrationReport
    from .workload import _PartitionedClientBase


@dataclass
class PartitionedRunStatistics:
    """One run of a partitioned cluster under load."""

    technique: str
    partition_count: int
    offered_load_tps: float = 0.0
    simulated_duration_ms: float = 0.0
    #: Fast-path (single-partition) population.
    single: RunStatistics = field(
        default_factory=lambda: RunStatistics("single-partition"))
    #: Coordinated (cross-partition) population.
    cross: RunStatistics = field(
        default_factory=lambda: RunStatistics("cross-partition"))
    #: Locally committed transactions per partition (includes the replicated
    #: copies, so it measures per-group work, not client-visible commits).
    per_partition_commits: Dict[int, int] = field(default_factory=dict)
    #: Fast-path arrivals dropped before submission because their whole
    #: partition was down.  Kept separate from ``single.measured_aborts``
    #: (which only counts transactions a server answered), so outage
    #: experiments can see the fast path's losses next to the coordinated
    #: path's unavailability aborts.
    rejected_submissions: int = 0
    #: Client-visible commits per routing epoch (at response time).
    epoch_commits: Dict[int, int] = field(default_factory=dict)
    #: Submissions re-routed after ownership moved under them.
    wrong_epoch_retries: int = 0
    #: Client-visible terminations while a migration was in flight.
    during_migration_commits: int = 0
    during_migration_aborts: int = 0
    #: Every migration the cluster ran (completed or aborted).
    migrations: List["MigrationReport"] = field(default_factory=list)
    #: The routing epoch when the statistics were collected.
    final_epoch: int = 0
    #: Autobalance controller telemetry (None when no controller ran).
    controller: Optional["ControllerStats"] = None
    #: Decay windows the routing table rolled during the run.
    windows_rolled: int = 0
    #: Injected crash / recovery events, in simulation order (failure
    #: experiments; empty for plain load runs).
    injected_crashes: List["CrashEvent"] = field(default_factory=list)
    #: Failpoint phases that fired during the run, with counts.
    failpoints_fired: Dict[str, int] = field(default_factory=dict)
    #: The span tracer attached to the run's simulator (None when tracing was
    #: off), so experiment CLIs can export traces after collection.
    obs: Optional[Any] = field(default=None, repr=False)

    # -- aggregates ---------------------------------------------------------------------
    @property
    def measured_commits(self) -> int:
        """Client-visible commits of both kinds."""
        return self.single.measured_commits + self.cross.measured_commits

    @property
    def measured_aborts(self) -> int:
        """Client-visible aborts of both kinds."""
        return self.single.measured_aborts + self.cross.measured_aborts

    @property
    def achieved_throughput_tps(self) -> float:
        """Committed transactions per second of simulated time."""
        if self.simulated_duration_ms <= 0:
            return 0.0
        return self.measured_commits / (self.simulated_duration_ms / 1000.0)

    @property
    def response_times(self) -> List[float]:
        """Response times of all committed transactions."""
        return self.single.response_times + self.cross.response_times

    @property
    def mean_response_time(self) -> float:
        """Mean response time (ms) across both populations."""
        times = self.response_times
        return sum(times) / len(times) if times else 0.0

    @property
    def cross_partition_ratio(self) -> float:
        """Fraction of terminated transactions that were cross-partition."""
        total = (self.single.measured_commits + self.single.measured_aborts +
                 self.cross.measured_commits + self.cross.measured_aborts)
        if not total:
            return 0.0
        return (self.cross.measured_commits +
                self.cross.measured_aborts) / total

    @property
    def completed_migrations(self) -> List["MigrationReport"]:
        """Migrations that installed their epoch bump."""
        return [report for report in self.migrations if report.completed]

    def percentile(self, fraction: float) -> float:
        """Response-time percentile over both populations combined."""
        return _shared_percentile(self.response_times, fraction)


def collect_statistics(clients: "_PartitionedClientBase",
                       duration_ms: float) -> PartitionedRunStatistics:
    """Summarise one driven run of a partitioned cluster.

    Works for both the open-loop and the closed-loop driver (a closed-loop
    pool has no fixed offered load, so that field stays 0).
    """
    cluster = clients.cluster
    stats = PartitionedRunStatistics(
        technique="+".join(sorted(set(cluster.techniques))),
        partition_count=cluster.partition_count,
        offered_load_tps=getattr(clients, "load_tps", 0.0),
        simulated_duration_ms=duration_ms)
    # Both populations span the same measured window, so their per-population
    # achieved_throughput_tps works out of the box.
    stats.single.simulated_duration_ms = duration_ms
    stats.cross.simulated_duration_ms = duration_ms
    for result in clients.single_results:
        stats.single.record(result)
    for outcome in clients.cross_results:
        # record() only reads committed / response_time / abort_reason, all
        # of which CrossPartitionOutcome provides.
        stats.cross.record(outcome)
    stats.per_partition_commits = cluster.commit_counts()
    stats.rejected_submissions = clients.rejected_count
    stats.epoch_commits = dict(clients.epoch_commits)
    stats.wrong_epoch_retries = cluster.router.wrong_epoch_retries
    stats.during_migration_commits = clients.during_migration_commits
    stats.during_migration_aborts = clients.during_migration_aborts
    stats.migrations = list(cluster.migration_reports)
    stats.final_epoch = cluster.routing.epoch
    if cluster.controller is not None:
        stats.controller = cluster.controller.stats
    stats.windows_rolled = cluster.routing.windows_rolled
    stats.injected_crashes = list(cluster.crash_log)
    stats.failpoints_fired = dict(cluster.failpoints_fired)
    stats.obs = cluster.sim.obs
    return stats


def render_partition_table(rows: Sequence[PartitionedRunStatistics]) -> str:
    """Text table of a partition-count sweep (one row per run)."""
    header = (f"{'partitions':>10} | {'offered tps':>11} | "
              f"{'committed':>9} | {'tput tps':>9} | {'mean rt':>8} | "
              f"{'p95 rt':>8} | {'cross %':>7}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.partition_count:>10} | {row.offered_load_tps:>11.0f} | "
            f"{row.measured_commits:>9} | "
            f"{row.achieved_throughput_tps:>9.1f} | "
            f"{row.mean_response_time:>8.1f} | "
            f"{row.percentile(0.95):>8.1f} | "
            f"{row.cross_partition_ratio:>7.1%}")
    return "\n".join(lines)
