"""Partitioned failure-injection matrix: Tables 2/3 for a sharded cluster.

The single-group failure matrix (:mod:`repro.experiments.failure_matrix`)
confronts the paper's derived loss conditions with concrete crash schedules
on one replica group.  This module extends the same discipline to the
partitioned subsystem: every (technique, shard count, crash pattern) cell
derives a predicted-loss verdict by composing the per-shard criteria with
the 2PC blocking rules (:func:`repro.core.matrix.partitioned_loss_condition`),
runs the concrete schedule through the crash-injection failpoints of
:class:`~repro.partition.cluster.PartitionedCluster` (deterministic crash
points keyed to WAL / 2PC / migration phase, never to wall time), and audits
per-key commit integrity.

Crash-pattern taxonomy (:data:`PARTITIONED_CRASH_PATTERNS`):

* **shard-local** — ``none``, ``shard-delegate``, ``shard-outage`` (the
  whole group of one shard crashes, the delegate never recovers) and
  ``shard-outage-recover-all``.  These are the single-group Table 2/3
  patterns replayed *inside* one shard of a live partitioned cluster, with
  the extra observation that the other shards keep serving.
* **coordinator** — ``coordinator-before-decision`` (the home delegate, and
  with it the 2PC coordinator, crashes after every branch voted yes but
  before the decision record is durable: nothing was installed, the client
  is answered with an abort) and ``coordinator-after-decision`` (the crash
  lands after the forced DECISION record: the client blocks — classic 2PC —
  and decision replay finishes phase 2 on recovery).
* **mid-migration** — ``migration-source-copy`` (whole source group dies
  during the warm copy; the migration must abort and leave the old owner
  authoritative), ``migration-dest-fence`` (the destination group dies under
  the write fence; the fence must lift and the source serve again) and
  ``migration-post-epoch`` (the old owner dies right after the new map's
  EPOCH record is durable on the destination but before the old owner
  learns of it; recovery must come up with the *new* map and the
  destination must serve the migrated keys).

Two properties are checked per cell, exactly as in the single-group matrix:
**soundness** (a "No Transaction Loss" verdict is never contradicted, and
the run's invariants — atomicity, resolution of every client, routing-map
crash consistency, post-pattern availability — all hold) and
**demonstration** (the predicted-possible-loss cells exhibit at least one
concrete losing schedule).

The scenario verbs, the cell fan-out, the entry type and the CLI gate are
the shared :mod:`repro.experiments.harness`; the per-key audit is
:func:`repro.core.audit.audit_writes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.audit import ConfirmedWrite, Finding, FindingKind, audit_writes
from ..partition.cluster import PartitionedCluster
from ..partition.coordinator import CrossPartitionOutcome
from ..partition.migration import MigrationReport
from ..workload.params import SimulationParameters
from .harness import (SMOKE_TECHNIQUES, TECHNIQUES, TRACE_ARGUMENT, LossCell,
                      advance_until, confirm, demonstrated, loss_bars,
                      loss_cell, matrix_cli, probe, run_cells,
                      small_parameters, submit_writes, violations)

#: The partitioned crash patterns, with one-line descriptions (the taxonomy
#: of the module docstring; validated by :func:`run_partitioned_crash_scenario`).
PARTITIONED_CRASH_PATTERNS: Dict[str, str] = {
    "none": "no crash (audit-machinery baseline)",
    "shard-delegate": "the delegate of the owning shard crashes, stays down",
    "shard-outage": "whole-shard outage; only the non-delegates recover",
    "shard-outage-recover-all": "whole-shard outage; every server recovers",
    "coordinator-before-decision": "home delegate dies after the votes, "
                                   "before the decision is durable",
    "coordinator-after-decision": "home delegate dies after the forced "
                                  "DECISION record, mid phase 2",
    "migration-source-copy": "source group dies during the warm copy",
    "migration-dest-fence": "destination group dies under the write fence",
    "migration-post-epoch": "old owner dies after the EPOCH record is "
                            "durable on the destination",
}

#: Patterns every matrix run must include for the acceptance bars
#: (whole-shard outage, a coordinator crash, two mid-migration points).
REQUIRED_PATTERN_CLASSES: Dict[str, Tuple[str, ...]] = {
    "whole-shard outage": ("shard-outage", "shard-outage-recover-all"),
    "coordinator crash": ("coordinator-before-decision",
                          "coordinator-after-decision"),
    "mid-migration copy crash": ("migration-source-copy",),
    "mid-migration fence/handoff crash": ("migration-dest-fence",
                                          "migration-post-epoch"),
}



# --------------------------------------------------------------------------- outcome types
@dataclass
class ShardStatus:
    """What the crash pattern did to one shard the audited transaction needs."""

    partition_id: int
    group_failed: bool
    #: Crashed and never recovered (the Table 3 meaning of "Sd crashes").
    delegate_crashed: bool


@dataclass
class PartitionedScenarioOutcome:
    """Everything one partitioned failure scenario produced, audited."""

    technique: str
    crash_pattern: str
    shard_count: int
    #: Was the audited transaction confirmed to its client?
    confirmed: bool
    #: Statuses of the shards the audited transaction's durability depends on.
    audited_shards: List[ShardStatus] = field(default_factory=list)
    #: What the per-key commit-integrity audit holds against the run.
    findings: List[Finding] = field(default_factory=list)
    #: An aborted transaction installed writes nowhere (all-or-nothing).
    atomicity_ok: bool = True
    #: Every submitted client transaction was eventually answered.
    resolved: bool = True
    #: The client was already answered while the crashed coordinator was
    #: still down (the bounded decision wait of ``coordinator-before-
    #: decision``; trivially True for every other pattern).
    resolved_before_recovery: bool = True
    #: The client was observably blocked before the recovery (2PC patterns).
    blocked_before_recovery: bool = False
    #: A fresh transaction committed after the pattern ran its course.
    fresh_commit_ok: bool = True
    #: The ownership map a restarted cluster would recover matches the map
    #: the live cluster serves (the migration crash-consistency contract).
    routing_consistent: bool = True
    #: The migration resolved the way the pattern demands (aborted with the
    #: right reason, or completed verified).  None for non-migration patterns.
    migration_ok: Optional[bool] = None
    migration: Optional[MigrationReport] = None
    crashed_servers: List[str] = field(default_factory=list)
    recovered_servers: List[str] = field(default_factory=list)

    def _found(self, kind: FindingKind) -> bool:
        return any(finding.kind is kind for finding in self.findings)

    @property
    def transaction_lost(self) -> bool:
        """A confirmed write is gone from every server that could serve it."""
        return self._found(FindingKind.LOST)

    @property
    def invariants_ok(self) -> bool:
        """The pattern's loss-independent invariants all held."""
        return (self.atomicity_ok and self.resolved
                and self.resolved_before_recovery
                and self.fresh_commit_ok and self.routing_consistent
                and self.migration_ok is not False
                and not self._found(FindingKind.DUPLICATED))


# --------------------------------------------------------------------------- helpers
def _confirmed(cluster: PartitionedCluster, keys: Sequence[str],
               tag: str) -> ConfirmedWrite:
    """Confirm one update of ``keys``, recorded for the audit."""
    values = {key: f"{tag}:{key}" for key in keys}
    result = confirm(cluster, values, client=tag)
    return ConfirmedWrite(result.txn_id, cluster.partition_of(keys[0]),
                          values)


def branch_writes(cluster: PartitionedCluster, cross: CrossPartitionOutcome,
                  values: Mapping[str, object]) -> List[ConfirmedWrite]:
    """The confirmed writes of a committed 2PC outcome, one per branch."""
    return [ConfirmedWrite(branch.txn_id, branch.partition_id,
                           {key: value for key, value in values.items()
                            if cluster.partition_of(key)
                            == branch.partition_id})
            for branch in cross.branches if branch.txn_id is not None]


def _shard_keys(cluster: PartitionedCluster, shard: int,
                count: int = 3) -> List[str]:
    """Distinct item keys inside ``shard``'s current range (range strategy)."""
    key_range = cluster.routing.range_of(shard)
    width = key_range.width
    positions = sorted({key_range.lo + (index + 1) * width // (count + 1)
                        for index in range(count)})
    return [f"item-{position}" for position in positions]


def _probe_commits(cluster: PartitionedCluster, shard: int, tag: str) -> bool:
    """True if a fresh update inside ``shard``'s range commits within 5 s.

    The probe writes the range's first position, which :func:`_shard_keys`
    never yields: fresh values stay off the audited keys, so the per-key
    audit's expected values remain intact.
    """
    key = f"item-{cluster.routing.range_of(shard).lo}"
    result = probe(cluster, {key: f"{tag}:{key}"}, client=tag)
    return bool(result is not None and result.committed)


def _recover_group(cluster: PartitionedCluster, partition_id: int,
                   servers: Sequence[str], step_ms: float = 50.0) -> None:
    for name in servers:
        cluster.recover_server(partition_id, name)
        cluster.run(until=cluster.sim.now + step_ms)


# --------------------------------------------------------------------------- scenarios
def run_partitioned_crash_scenario(technique: str, crash_pattern: str,
                                   shard_count: int = 2, seed: int = 1,
                                   params: Optional[SimulationParameters]
                                   = None,
                                   settle_ms: float = 2_000.0
                                   ) -> PartitionedScenarioOutcome:
    """Run one partitioned failure-injection scenario and audit it.

    Builds a range-sharded cluster of ``shard_count`` groups (all running
    ``technique``), confirms an update inside shard 0's range, injects the
    pattern's crash — through a deterministic failpoint for the 2PC and
    migration patterns — runs the recoveries, and audits the aftermath.
    """
    if crash_pattern not in PARTITIONED_CRASH_PATTERNS:
        raise ValueError(
            f"unknown crash pattern {crash_pattern!r}; expected one of "
            f"{sorted(PARTITIONED_CRASH_PATTERNS)}")
    if shard_count < 2:
        raise ValueError("the partitioned matrix needs at least 2 shards")
    cluster = PartitionedCluster(
        technique, seed=seed, strategy="range",
        params=small_parameters(params, partition_count=shard_count,
                                cross_partition_probability=0.0))
    cluster.start()
    outcome = PartitionedScenarioOutcome(
        technique=technique, crash_pattern=crash_pattern,
        shard_count=shard_count, confirmed=True)
    if crash_pattern.startswith("coordinator-"):
        _run_coordinator_pattern(cluster, outcome, settle_ms)
    elif crash_pattern.startswith("migration-"):
        _run_migration_pattern(cluster, outcome, settle_ms)
    else:
        _run_shard_pattern(cluster, outcome, settle_ms)
    return outcome


def _run_shard_pattern(cluster: PartitionedCluster,
                       outcome: PartitionedScenarioOutcome,
                       settle_ms: float) -> None:
    """The single-group Table 2/3 patterns, replayed inside shard 0."""
    sim, pattern = cluster.sim, outcome.crash_pattern
    group = cluster.group(0)
    names = group.server_names()
    delegate = group.choose_delegate(0)
    remote_shard = cluster.partition_count - 1
    freeze = pattern in ("shard-outage", "shard-outage-recover-all")
    non_delegates = [name for name in names if name != delegate]
    if freeze:
        # The Fig. 5 window: the non-delegates crash after *delivering* the
        # transaction's message but before processing it.
        for name in non_delegates:
            group.replica(name).processing_gate.close()

    write = _confirmed(cluster, _shard_keys(cluster, 0), tag=pattern)
    sim.run(until=sim.now + 10.0)

    crashed: List[str] = []
    recovered: List[str] = []
    if pattern == "shard-delegate":
        crashed = [delegate]
        cluster.crash_server(0, delegate)
    elif pattern != "none":
        crashed = list(names)
        recovered = (non_delegates if pattern == "shard-outage"
                     else non_delegates + [delegate])
        cluster.crash_partition(0)
    sim.run(until=sim.now + 5.0)
    for name in names:
        group.replica(name).processing_gate.open()
    _recover_group(cluster, 0, recovered)
    sim.run(until=sim.now + settle_ms)

    outcome.crashed_servers, outcome.recovered_servers = crashed, recovered
    outcome.audited_shards = [ShardStatus(
        partition_id=0,
        group_failed=len(crashed) > len(names) // 2,
        delegate_crashed=delegate in crashed and delegate not in recovered)]
    # The outage is contained: the other shards keep serving.
    outcome.fresh_commit_ok = _probe_commits(cluster, remote_shard,
                                             tag=f"{pattern}.probe")
    outcome.findings = audit_writes(cluster.groups, [write],
                                    cluster.partition_of)
    outcome.routing_consistent = (
        cluster.recovered_routing().partition_of(
            next(iter(write.values))) == 0)


def _run_coordinator_pattern(cluster: PartitionedCluster,
                             outcome: PartitionedScenarioOutcome,
                             settle_ms: float) -> None:
    """Home-delegate (= coordinator) crashes around the 2PC decision point."""
    sim, pattern = cluster.sim, outcome.crash_pattern
    remote_shard = cluster.partition_count - 1
    local_key = _shard_keys(cluster, 0, count=1)[0]
    remote_key = _shard_keys(cluster, remote_shard, count=1)[0]
    values = {local_key: f"{pattern}:{local_key}",
              remote_key: f"{pattern}:{remote_key}"}

    crash_site: Dict[str, object] = {}

    def crash_home(context: Dict[str, object]) -> None:
        home = context["home"]
        server = context["delegates"][home]
        crash_site.update(partition=home, server=server)
        cluster.crash_server(home, server)

    phase = ("2pc.prepared" if pattern == "coordinator-before-decision"
             else "2pc.decided")
    cluster.add_failpoint(phase, crash_home)
    waiter = submit_writes(cluster, values, client=pattern)

    if pattern == "coordinator-before-decision":
        # The decision was never durable: the coordinator aborts (bounded
        # decision wait) and the client is answered while the crashed home
        # delegate is still down — nothing installed, nobody waits for it.
        outcome.resolved_before_recovery = advance_until(
            cluster, lambda: waiter.triggered, limit=sim.now + 8_000.0)
    else:
        # The decision is durable: the client blocks (classic 2PC) until
        # the recovered home delegate replays the DECISION record.
        sim.run(until=sim.now + 1_500.0)
        outcome.blocked_before_recovery = not waiter.triggered
    assert crash_site, "the 2PC failpoint never fired"
    cluster.recover_server(crash_site["partition"], crash_site["server"])
    outcome.recovered_servers = [crash_site["server"]]
    outcome.crashed_servers = [crash_site["server"]]
    outcome.resolved = advance_until(cluster, lambda: waiter.triggered,
                                     limit=sim.now + 20_000.0)
    sim.run(until=sim.now + settle_ms)

    cross = waiter.value if waiter.triggered else None
    outcome.confirmed = bool(cross is not None and cross.committed)
    # Every involved delegate is up again: each branch enters the
    # composition as an ordinary no-crash shard (the 2PC blocking rules
    # turn the coordinator crash into delay, not loss).
    outcome.audited_shards = [
        ShardStatus(partition_id=pid, group_failed=False,
                    delegate_crashed=False) for pid in (0, remote_shard)]
    if outcome.confirmed:
        outcome.findings = audit_writes(
            cluster.groups, branch_writes(cluster, cross, values),
            cluster.partition_of)
    else:
        # Atomicity of the abort: none of the transaction's values may have
        # been installed on any server of any group.
        outcome.atomicity_ok = not any(
            group.database(name).value_of(key) == value
            for group in cluster.groups
            for name in group.server_names()
            for key, value in values.items())
    outcome.fresh_commit_ok = (
        _probe_commits(cluster, 0, tag=f"{pattern}.probe0")
        and _probe_commits(cluster, remote_shard, tag=f"{pattern}.probe1"))


def _run_migration_pattern(cluster: PartitionedCluster,
                           outcome: PartitionedScenarioOutcome,
                           settle_ms: float) -> None:
    """Whole-group crashes at deterministic points of a live migration."""
    sim, pattern = cluster.sim, outcome.crash_pattern
    source, destination = 0, cluster.partition_count - 1
    target_keys = _shard_keys(cluster, source)
    write = _confirmed(cluster, target_keys, tag=pattern)
    # Let the confirmed write finish processing and reach the delegate's
    # log before anything crashes (the lazy techniques confirm early).
    sim.run(until=sim.now + 150.0)

    phase = {"migration-source-copy": "migration.copy-chunk",
             "migration-dest-fence": "migration.fence",
             "migration-post-epoch": "migration.epoch-logged"}[pattern]
    crashed_group = destination if pattern == "migration-dest-fence" \
        else source
    cluster.add_failpoint(
        phase, lambda context: cluster.crash_partition(crashed_group))
    driver = cluster.migrate(source, destination, chunk_size=8)
    if not advance_until(cluster, lambda: driver.triggered,
                         limit=sim.now + 30_000.0):
        raise RuntimeError(f"migration driver never finished under "
                           f"pattern {pattern!r}")
    report = outcome.migration = cluster.migration_reports[-1]
    group = cluster.group(crashed_group)
    outcome.crashed_servers = list(group.server_names())

    if pattern == "migration-source-copy":
        outcome.migration_ok = (report.aborted
                                and report.abort_reason
                                == "source-unavailable")
        owner, group_failed = source, True
    elif pattern == "migration-dest-fence":
        outcome.migration_ok = (report.aborted
                                and report.abort_reason
                                == "destination-unavailable")
        owner, group_failed = source, False
        # The fence must have lifted with the abort: the range accepts
        # writes again while the destination group is still down.
        outcome.fresh_commit_ok = _probe_commits(cluster, source,
                                                 tag=f"{pattern}.unfenced")
    else:  # migration-post-epoch
        outcome.migration_ok = bool(report.completed and report.verified)
        owner, group_failed = destination, False
        # The handoff must already serve: the migrated range commits on
        # the destination while the old owner is still down.
        outcome.fresh_commit_ok = _probe_commits(cluster, 0,
                                                 tag=f"{pattern}.handoff")

    delegate = group.server_names()[0]
    non_delegates = [name for name in group.server_names()
                     if name != delegate]
    _recover_group(cluster, crashed_group, non_delegates + [delegate])
    outcome.recovered_servers = non_delegates + [delegate]
    sim.run(until=sim.now + settle_ms)

    outcome.audited_shards = [ShardStatus(partition_id=owner,
                                          group_failed=group_failed,
                                          delegate_crashed=False)]
    served_by = cluster.partition_of(target_keys[0])
    recovered_by = cluster.recovered_routing().partition_of(target_keys[0])
    outcome.routing_consistent = served_by == owner == recovered_by
    outcome.findings = audit_writes(cluster.groups, [write],
                                    cluster.partition_of)
    if outcome.fresh_commit_ok:
        outcome.fresh_commit_ok = _probe_commits(cluster, destination,
                                                 tag=f"{pattern}.probe")


# --------------------------------------------------------------------------- the matrix
def _matrix_cell(cell) -> LossCell:
    """Run one (technique, shard count, crash pattern) cell."""
    technique, pattern, shard_count, seed, params = cell
    outcome = run_partitioned_crash_scenario(
        technique, pattern, shard_count=shard_count, seed=seed,
        params=params)
    return loss_cell(technique, pattern, outcome,
                     [(status.group_failed, status.delegate_crashed)
                      for status in outcome.audited_shards],
                     shard_count=shard_count,
                     invariants_ok=outcome.invariants_ok)


def run_partitioned_failure_matrix(techniques: Optional[Sequence[str]] = None,
                                   patterns: Optional[Sequence[str]] = None,
                                   shard_count: int = 2, seed: int = 1,
                                   params: Optional[SimulationParameters]
                                   = None,
                                   workers: int = 1) -> List[LossCell]:
    """Run every (technique, shard count, crash pattern) cell, technique-major.

    The predicted verdict composes the per-shard Table 3 conditions over the
    shards the audited transaction depends on
    (:func:`~repro.experiments.harness.loss_cell`).
    """
    return run_cells(
        _matrix_cell,
        ((technique, pattern, shard_count, seed, params)
         for technique in (TECHNIQUES if techniques is None else techniques)
         for pattern in (PARTITIONED_CRASH_PATTERNS if patterns is None
                         else patterns)), workers)


def missing_pattern_classes(entries: Sequence[LossCell]) -> List[str]:
    """Required pattern classes (acceptance bars) no entry covers."""
    run_patterns = {entry.crash_pattern for entry in entries}
    return [label
            for label, members in REQUIRED_PATTERN_CLASSES.items()
            if not run_patterns.intersection(members)]


def render_partitioned_matrix(entries: Sequence[LossCell]) -> str:
    """Human-readable rendering of the partitioned matrix (report file)."""
    header = (f"{'technique':>14} | {'shards':>6} | {'pattern':>28} | "
              f"{'predicted':>10} | {'observed':>9} | {'invariants':>10} | "
              f"sound")
    lines = [header, "-" * len(header)]
    for entry in entries:
        predicted = ("possible" if entry.predicted_possible_loss
                     else "no loss")
        observed = "LOST" if entry.observed_loss else "kept"
        invariants = "ok" if entry.invariants_ok else "VIOLATED"
        lines.append(
            f"{entry.technique:>14} | {entry.shard_count:>6} | "
            f"{entry.crash_pattern:>28} | {predicted:>10} | "
            f"{observed:>9} | {invariants:>10} | {entry.sound}")
    broken = violations(entries)
    lines.append("")
    lines.append(f"cells: {len(entries)}  soundness violations: "
                 f"{len(broken)}  demonstrated losses: "
                 f"{len(demonstrated(entries))}")
    for entry in broken:
        lines.append(f"  VIOLATION {entry.technique}/{entry.crash_pattern}: "
                     f"{[str(finding) for finding in entry.outcome.findings]}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- CLI
def main(argv: Optional[List[str]] = None) -> int:
    """CLI / CI smoke entry: run the matrix and enforce the acceptance bars.

    Exits non-zero on any soundness violation, on a run that fails to
    demonstrate a loss in a predicted-possible-loss cell, or on a run
    missing one of the required pattern classes — so a regression in the
    partitioned crash handling fails CI even without the benchmark job.
    """
    return matrix_cli(
        argv, description=__doc__.splitlines()[0],
        report_name="partition_failure_matrix",
        run=lambda arguments, params: run_partitioned_failure_matrix(
            techniques=SMOKE_TECHNIQUES if arguments.smoke else TECHNIQUES,
            shard_count=arguments.shards, seed=arguments.seed, params=params,
            workers=arguments.workers),
        render=render_partitioned_matrix,
        bars=lambda entries: [
            f"required pattern class not exercised: {label}"
            for label in missing_pattern_classes(entries)]
        + loss_bars(entries),
        extra_arguments=(
            ("--shards", dict(type=int, default=2,
                              help="shard count of every scenario "
                                   "(default 2)")),
            TRACE_ARGUMENT))


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
