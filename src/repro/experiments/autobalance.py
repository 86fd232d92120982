"""Autobalance experiment: a controller repairing a hotspot shift by itself.

The rebalance experiment (:mod:`repro.experiments.rebalance`) shows that one
*operator-triggered* ``rebalance()`` call repairs a Zipf hot head.  This
experiment removes the operator: a :class:`~repro.partition.controller.
RebalanceController` watches windowed per-shard load, and mid-run the
workload's Zipf ranking is rotated (:meth:`~repro.partition.workload.
PartitionedWorkloadGenerator.shift_hotspot`) so the hot head jumps to a
different key region — the fault a static ownership map can never recover
from.  The controller must (a) repair the *initial* skew it observes after
warm-up, and (b) detect and repair the injected shift, both without any
``rebalance()`` call from the harness.

The comparison run is the identically seeded workload on the static epoch-0
map.  Measured per window: committed throughput before the shift, in the
repair window right after it, and in the recovered window at the end; the
hot group's commit share; the controller's decision counters (including the
skips — cooldown, hysteresis, below-threshold — that show the damping is
doing work); and the per-key commit-integrity audit of
:func:`~repro.experiments.rebalance.audit_commit_integrity`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..partition.cluster import PartitionedCluster
from ..partition.controller import ControllerStats, RebalanceController
from ..partition.migration import MigrationReport
from ..partition.routing import RoutingTable
from ..partition.stats import PartitionedRunStatistics, collect_statistics
from ..partition.workload import PartitionedOpenLoopClients
from ..workload.params import SimulationParameters
from .rebalance import audit_commit_integrity, window_commits

#: Default schedule (ms): measure, inject the shift, let the controller
#: repair, then measure the recovered steady state.
DEFAULT_WARMUP_MS = 2_000.0
DEFAULT_SHIFT_AT_MS = 6_000.0
DEFAULT_RECOVERY_MS = 11_000.0
DEFAULT_DURATION_MS = 17_000.0


@dataclass
class AutobalanceOutcome:
    """One run of the autobalance experiment (controlled or static)."""

    controlled: bool
    statistics: PartitionedRunStatistics
    #: The group owning the shifted hot head under the epoch-0 map.
    shifted_hot_group: int = 0
    #: Committed throughput (tps) per measurement window.
    pre_shift_tput: float = 0.0
    repair_tput: float = 0.0
    recovered_tput: float = 0.0
    #: Commit share of the shifted-to hot group, before the recovery window
    #: and inside it.
    hot_share_repair: float = 0.0
    hot_share_recovered: float = 0.0
    migrations: List[MigrationReport] = field(default_factory=list)
    controller_stats: Optional[ControllerStats] = None
    #: Commit-integrity audit: empty means zero lost / duplicated commits.
    audit_failures: List[str] = field(default_factory=list)
    wrong_epoch_retries: int = 0

    @property
    def audit_ok(self) -> bool:
        """True when the per-key commit audit found nothing."""
        return not self.audit_failures

    @property
    def completed_migrations(self) -> List[MigrationReport]:
        """Migrations that installed their epoch bump."""
        return [report for report in self.migrations if report.completed]


def run_autobalance_experiment(controlled: bool = True,
                               technique: str = "group-safe",
                               partitions: int = 4,
                               items: int = 400,
                               load_tps: float = 150.0,
                               zipf_skew: float = 1.1,
                               cross_partition_probability: float = 0.05,
                               shift_offset: Optional[int] = None,
                               warmup_ms: float = DEFAULT_WARMUP_MS,
                               shift_at_ms: float = DEFAULT_SHIFT_AT_MS,
                               recovery_ms: float = DEFAULT_RECOVERY_MS,
                               duration_ms: float = DEFAULT_DURATION_MS,
                               window_ms: float = 500.0,
                               share_threshold: float = 0.45,
                               cooldown_windows: int = 2,
                               hysteresis_windows: int = 4,
                               seed: int = 33,
                               params: Optional[SimulationParameters] = None,
                               observability: bool = False
                               ) -> AutobalanceOutcome:
    """Drive one (optionally controller-supervised) hotspot-shift run.

    Range sharding concentrates the Zipf head on group 0; at
    ``shift_at_ms`` the ranking rotates by ``shift_offset`` (default: half
    the keyspace) so the head jumps mid-keyspace.  With ``controlled`` a
    :class:`~repro.partition.controller.RebalanceController` runs from the
    start and must repair both the initial skew and the shift on its own;
    without it the epoch-0 map serves unchanged.
    """
    parameters = params or SimulationParameters.small(server_count=3,
                                                      item_count=items)
    parameters = parameters.with_overrides(
        partition_count=partitions, zipf_skew=zipf_skew,
        cross_partition_probability=cross_partition_probability)
    offset = shift_offset if shift_offset is not None else items // 2
    cluster = PartitionedCluster(technique, params=parameters, seed=seed,
                                 strategy="range")
    if observability:
        cluster.enable_observability()
    cluster.start()
    controller: Optional[RebalanceController] = None
    if controlled:
        controller = RebalanceController(
            cluster, window_ms=window_ms, share_threshold=share_threshold,
            cooldown_windows=cooldown_windows,
            hysteresis_windows=hysteresis_windows)
        controller.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=load_tps,
                                         warmup=warmup_ms)
    clients.start()
    cluster.run(until=shift_at_ms)
    cluster.workload.shift_hotspot(offset)
    cluster.run(until=duration_ms)

    statistics = collect_statistics(clients,
                                    duration_ms=duration_ms - warmup_ms)
    outcome = AutobalanceOutcome(controlled=controlled,
                                 statistics=statistics)
    # Where the shifted head lands under the *static* epoch-0 layout — the
    # group the uncontrolled run saturates after the shift.
    epoch0 = RoutingTable.from_strategy("range", partitions,
                                        parameters.item_count)
    outcome.shifted_hot_group = epoch0.partition_of(f"item-{offset}")
    hot = outcome.shifted_hot_group
    pre, _ = window_commits(clients, warmup_ms, shift_at_ms, hot_group=hot)
    repair, repair_hot = window_commits(clients, shift_at_ms, recovery_ms,
                                        hot_group=hot)
    recovered, recovered_hot = window_commits(clients, recovery_ms,
                                              duration_ms, hot_group=hot)
    outcome.pre_shift_tput = pre / ((shift_at_ms - warmup_ms) / 1000.0)
    outcome.repair_tput = repair / ((recovery_ms - shift_at_ms) / 1000.0)
    outcome.recovered_tput = recovered / ((duration_ms - recovery_ms) /
                                          1000.0)
    outcome.hot_share_repair = repair_hot / repair if repair else 0.0
    outcome.hot_share_recovered = (recovered_hot / recovered
                                   if recovered else 0.0)
    outcome.migrations = list(cluster.migration_reports)
    if controller is not None:
        outcome.controller_stats = controller.stats
    outcome.audit_failures = audit_commit_integrity(cluster, clients)
    outcome.wrong_epoch_retries = cluster.router.wrong_epoch_retries
    return outcome


def render_autobalance_report(static: AutobalanceOutcome,
                              controlled: AutobalanceOutcome) -> str:
    """Text report comparing the static map against the controlled run."""
    lines = [
        "Autobalance controller vs. static map under a Zipf hotspot shift",
        "",
        f"{'':>26} | {'static':>10} | {'controlled':>10}",
        "-" * 54,
    ]

    def row(label: str, static_value: str, controlled_value: str) -> None:
        lines.append(f"{label:>26} | {static_value:>10} | "
                     f"{controlled_value:>10}")

    row("pre-shift tput (tps)", f"{static.pre_shift_tput:.1f}",
        f"{controlled.pre_shift_tput:.1f}")
    row("repair-window tput (tps)", f"{static.repair_tput:.1f}",
        f"{controlled.repair_tput:.1f}")
    row("recovered tput (tps)", f"{static.recovered_tput:.1f}",
        f"{controlled.recovered_tput:.1f}")
    row("hot-group share (end)", f"{static.hot_share_recovered:.1%}",
        f"{controlled.hot_share_recovered:.1%}")
    row("migrations completed", f"{len(static.completed_migrations)}",
        f"{len(controlled.completed_migrations)}")
    row("wrong-epoch retries", f"{static.wrong_epoch_retries}",
        f"{controlled.wrong_epoch_retries}")
    row("audit", "ok" if static.audit_ok else "FAILED",
        "ok" if controlled.audit_ok else "FAILED")
    stats = controlled.controller_stats
    if stats is not None:
        lines += [
            "",
            f"controller: {stats.rebalances_triggered} rebalances over "
            f"{stats.windows_observed} windows "
            f"(skipped: {stats.skipped_below_threshold} below threshold, "
            f"{stats.skipped_cooldown} cooldown, "
            f"{stats.skipped_hysteresis} hysteresis, "
            f"{stats.skipped_migration_active} migration active)",
        ]
    for report in controlled.completed_migrations:
        lines.append(
            f"  moved {report.key_range!r} g{report.source_group}"
            f"->g{report.destination_group} epoch {report.epoch}: "
            f"copy {report.copy_duration_ms:.0f} ms "
            f"({report.copy_chunks} chunks, peak "
            f"{report.copy_inflight_peak} in flight, "
            f"{report.throttle_waits} throttle waits), fence "
            f"{report.fence_duration_ms:.0f} ms")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI / CI smoke entry: run both variants and check the controller.

    Exits non-zero when the controller failed to trigger, a migration
    failed verification, or the commit audit found a lost/duplicated
    commit — so a controller regression fails CI even without the full
    benchmark job.
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration for CI")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="run the controlled variant with tracing on and "
                             "write a Chrome trace-event JSON (plus a "
                             "critical-path .txt report) to PATH")
    arguments = parser.parse_args(argv)
    overrides = {}
    if arguments.smoke:
        overrides = dict(items=240, load_tps=100.0)
    static = run_autobalance_experiment(controlled=False, **overrides)
    controlled = run_autobalance_experiment(
        controlled=True, observability=bool(arguments.trace), **overrides)
    print(render_autobalance_report(static, controlled))
    if arguments.trace:
        from pathlib import Path

        from ..obs.export import write_chrome_trace, \
            write_critical_path_report
        trace_path = Path(arguments.trace)
        write_chrome_trace(trace_path, controlled.statistics.obs,
                           metadata={"scenario": "autobalance",
                                     "smoke": arguments.smoke})
        write_critical_path_report(trace_path.with_suffix(".txt"),
                                   controlled.statistics.obs)
        print(f"trace written to {trace_path} (critical-path report: "
              f"{trace_path.with_suffix('.txt')})")
    stats = controlled.controller_stats
    problems = []
    if stats is None or stats.rebalances_triggered < 1:
        problems.append("controller never triggered a rebalance")
    if not controlled.completed_migrations:
        problems.append("no migration completed")
    if not all(report.verified
               for report in controlled.completed_migrations):
        problems.append("a migration completed without copy verification")
    if not static.audit_ok or not controlled.audit_ok:
        problems.append("commit-integrity audit failed")
    if controlled.recovered_tput <= static.recovered_tput:
        problems.append("controller did not beat the static map")
    for problem in problems:
        print(f"SMOKE FAILURE: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
