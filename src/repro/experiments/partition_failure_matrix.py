"""Partitioned failure-injection matrix: Tables 2/3 for a sharded cluster.

The single-group failure matrix (:mod:`repro.experiments.failure_matrix`)
confronts the paper's derived loss conditions with concrete crash schedules
on one replica group.  This module extends the same discipline to the
partitioned subsystem: every (technique, crash pattern) cell, on a cluster of
:data:`SHARD_COUNT` range shards, derives a predicted-loss verdict by
composing the per-shard criteria with the 2PC blocking rules
(:func:`repro.core.matrix.partitioned_loss_condition`), runs the pattern's
workload against its fault plan
(:class:`~repro.experiments.plans.PlanDriver`; the 2PC and migration crashes
land through the failpoints of
:class:`~repro.partition.cluster.PartitionedCluster`, deterministic crash
points keyed to WAL / 2PC / migration phase, never to wall time), and audits
per-key commit integrity.

Crash-pattern taxonomy (:data:`PARTITIONED_CRASH_PATTERNS`, pattern name ->
workload, group and plan):

* **shard-local** — ``none``, ``shard-delegate``, ``shard-outage`` (the
  whole group of one shard crashes, the delegate never recovers) and
  ``shard-outage-recover-all``.  These are the single-group Table 2/3
  plans (:data:`~repro.experiments.scenarios.CRASH_PLANS`) applied *inside*
  shard 0 of a live partitioned cluster, with the extra observation that
  the other shards keep serving.
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
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.audit import ConfirmedWrite, Finding, FindingKind, audit_writes
from ..partition.cluster import PartitionedCluster
from ..partition.coordinator import CrossPartitionOutcome
from ..partition.migration import MigrationReport
from ..workload.params import SimulationParameters
from .harness import (SMOKE_TECHNIQUES, TECHNIQUES, LossCell, advance_until,
                      confirm, demonstrated, loss_bars, loss_cell, matrix_cli,
                      probe, run_cells, small_parameters, submit_writes,
                      violations)
from .plans import (DELEGATE, NON_DELEGATES, WORKLOAD, Plan, PlanDriver,
                    plan_entry)
from .scenarios import CRASH_PLANS, FREEZE, FROZEN, SETTLE

#: A pattern's entry: (workload, the group its plan addresses, plan).
_Entry = Tuple[Callable, int, Plan]

#: Shards of every scenario's cluster: shard 0 is the 2PC home and the
#: migration source, the last shard the 2PC remote branch and the
#: migration destination.
SHARD_COUNT = 2

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
    group_failed: bool = False
    #: Crashed and never recovered (the Table 3 meaning of "Sd crashes").
    delegate_crashed: bool = False


@dataclass
class PartitionedScenarioOutcome:
    """Everything one partitioned failure scenario produced, audited."""

    technique: str
    crash_pattern: str
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
    """Distinct item keys inside ``shard``'s current range."""
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


def migrate_shard_zero(cluster: PartitionedCluster,
                       pattern: str) -> MigrationReport:
    """Migrate shard 0 to the last group and wait for the migration's end."""
    migration = cluster.migrate(0, cluster.partition_count - 1, chunk_size=8)
    if not advance_until(cluster, lambda: migration.triggered,
                         limit=cluster.sim.now + 30_000.0):
        raise RuntimeError(f"migration driver never finished under "
                           f"pattern {pattern!r}")
    return cluster.migration_reports[-1]


# --------------------------------------------------------------------------- scenarios
def run_partitioned_crash_scenario(technique: str, crash_pattern: str,
                                   seed: int = 1,
                                   params: Optional[SimulationParameters]
                                   = None) -> PartitionedScenarioOutcome:
    """Run one partitioned failure-injection scenario and audit it.

    Builds a range-sharded cluster of :data:`SHARD_COUNT` groups (all running
    ``technique``) and runs the pattern's workload against its plan
    (:data:`PARTITIONED_CRASH_PATTERNS`): the crashes land through a
    deterministic failpoint for the 2PC and migration patterns.
    """
    workload, shard, plan = plan_entry(PARTITIONED_CRASH_PATTERNS,
                                       crash_pattern, "crash pattern")
    cluster = PartitionedCluster(
        technique, seed=seed,
        params=small_parameters(params, partition_count=SHARD_COUNT,
                                cross_partition_probability=0.0))
    cluster.start()
    outcome = PartitionedScenarioOutcome(
        technique=technique, crash_pattern=crash_pattern, confirmed=True)
    workload(cluster, outcome, PlanDriver(cluster, plan, shard=shard))
    return outcome


def _shard_workload(cluster: PartitionedCluster,
                    outcome: PartitionedScenarioOutcome,
                    driver: PlanDriver) -> None:
    """Confirm an update inside shard 0; the other shards keep serving."""
    pattern, group = outcome.crash_pattern, driver.group
    names, delegate = group.server_names(), group.choose_delegate(0)
    driver.advance()
    write = _confirmed(cluster, _shard_keys(cluster, 0), tag=pattern)
    driver.finish()

    crashed, recovered = driver.crashed, driver.recovered
    outcome.audited_shards = [ShardStatus(
        0, group_failed=len(crashed) > len(names) // 2,
        delegate_crashed=delegate in crashed and delegate not in recovered)]
    outcome.fresh_commit_ok = _probe_commits(
        cluster, cluster.partition_count - 1, tag=f"{pattern}.probe")
    outcome.findings = audit_writes(cluster.groups, [write],
                                    cluster.partition_of)
    outcome.routing_consistent = (
        cluster.recovered_routing().partition_of(
            next(iter(write.values))) == 0)


def _coordinator_workload(cluster: PartitionedCluster,
                          outcome: PartitionedScenarioOutcome,
                          driver: PlanDriver, decided: bool) -> None:
    """A 2PC transaction from shard 0 (its home) to the last shard."""
    sim, pattern = cluster.sim, outcome.crash_pattern
    remote_shard = cluster.partition_count - 1
    values = {key: f"{pattern}:{key}"
              for shard in (0, remote_shard)
              for key in _shard_keys(cluster, shard, count=1)}
    driver.advance()
    waiter = submit_writes(cluster, values, client=pattern)
    if decided:
        # The decision is durable: the client blocks (classic 2PC) until
        # the recovered home delegate replays the DECISION record.
        sim.run(until=sim.now + 1_500.0)
        outcome.blocked_before_recovery = not waiter.triggered
    else:
        # The decision was never durable: the coordinator aborts (bounded
        # decision wait) and the client is answered while the crashed home
        # delegate is still down — nothing installed, nobody waits for it.
        outcome.resolved_before_recovery = advance_until(
            cluster, lambda: waiter.triggered, limit=sim.now + 8_000.0)
    driver.advance()
    outcome.resolved = advance_until(cluster, lambda: waiter.triggered,
                                     limit=sim.now + 20_000.0)
    driver.finish()

    cross = waiter.value if waiter.triggered else None
    outcome.confirmed = bool(cross is not None and cross.committed)
    # Every involved delegate is up again: each branch enters the
    # composition as an ordinary no-crash shard (the 2PC blocking rules
    # turn the coordinator crash into delay, not loss).
    outcome.audited_shards = [ShardStatus(pid) for pid in (0, remote_shard)]
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


def _migration_workload(cluster: PartitionedCluster,
                        outcome: PartitionedScenarioOutcome,
                        driver: PlanDriver,
                        abort_reason: Optional[str]) -> None:
    """Migrate shard 0 to the last group while the plan crashes a group.

    The migration must abort with ``abort_reason`` and leave the source
    serving, or (``None``) complete and hand the range to the destination.
    """
    pattern = outcome.crash_pattern
    source, destination = 0, cluster.partition_count - 1
    owner = source if abort_reason else destination
    target_keys = _shard_keys(cluster, source)
    driver.advance()
    write = _confirmed(cluster, target_keys, tag=pattern)
    driver.advance()
    report = outcome.migration = migrate_shard_zero(cluster, pattern)
    outcome.migration_ok = (
        report.aborted and report.abort_reason == abort_reason
        if abort_reason else bool(report.completed and report.verified))
    if driver.shard != owner:
        # The owner serves while the crashed group is down: the fence
        # lifted with the abort, or the handoff already serves.
        tag = "unfenced" if abort_reason else "handoff"
        outcome.fresh_commit_ok = _probe_commits(cluster, source,
                                                 tag=f"{pattern}.{tag}")
    driver.finish()

    outcome.audited_shards = [
        ShardStatus(owner, group_failed=driver.shard == owner)]
    served_by = cluster.partition_of(target_keys[0])
    recovered_by = cluster.recovered_routing().partition_of(target_keys[0])
    outcome.routing_consistent = served_by == owner == recovered_by
    outcome.findings = audit_writes(cluster.groups, [write],
                                    cluster.partition_of)
    if outcome.fresh_commit_ok:
        outcome.fresh_commit_ok = _probe_commits(cluster, destination,
                                                 tag=f"{pattern}.probe")


def _shard(pattern: str) -> _Entry:
    """The single-group crash plan ``pattern``, applied to shard 0."""
    return (_shard_workload, 0,
            (FREEZE if pattern in FROZEN else ()) + CRASH_PLANS[pattern])


def _coordinator(phase: str) -> _Entry:
    """The home delegate (shard 0's first server) crashes at the 2PC
    ``phase``; it recovers after the client's first wait."""
    return (partial(_coordinator_workload, decided=phase == "2pc.decided"), 0,
            ((phase, "crash", DELEGATE), WORKLOAD,
             (0.0, "recover", (DELEGATE, 0.0)), WORKLOAD, SETTLE))


def _migration(phase: str, shard: int, abort_reason: Optional[str]) -> _Entry:
    """After the confirmed write had 150 ms to reach the delegate's log
    (the lazy techniques confirm early), group ``shard`` crashes whole at
    the migration ``phase``; it recovers non-delegates first."""
    return (partial(_migration_workload, abort_reason=abort_reason), shard,
            (WORKLOAD, (150.0, "wait", None), (phase, "crash-group", None),
             WORKLOAD, (0.0, "recover", (NON_DELEGATES, 50.0)),
             (0.0, "recover", (DELEGATE, 50.0)), SETTLE))


#: The partitioned crash patterns (the taxonomy of the module docstring):
#: name -> (workload, the group the plan addresses, plan).
PARTITIONED_CRASH_PATTERNS: Dict[str, _Entry] = {
    "none": _shard("none"),
    "shard-delegate": _shard("delegate"),
    "shard-outage": _shard("all-delegate-stays-down"),
    "shard-outage-recover-all": _shard("all-recover-all"),
    "coordinator-before-decision": _coordinator("2pc.prepared"),
    "coordinator-after-decision": _coordinator("2pc.decided"),
    "migration-source-copy": _migration("migration.copy-chunk", 0,
                                        "source-unavailable"),
    "migration-dest-fence": _migration("migration.fence", -1,
                                       "destination-unavailable"),
    "migration-post-epoch": _migration("migration.epoch-logged", 0, None),
}


# --------------------------------------------------------------------------- the matrix
def _matrix_cell(cell) -> LossCell:
    """Run one (technique, crash pattern) cell."""
    technique, pattern, seed, params = cell
    outcome = run_partitioned_crash_scenario(technique, pattern, seed=seed,
                                             params=params)
    return loss_cell(technique, pattern, outcome,
                     [(status.group_failed, status.delegate_crashed)
                      for status in outcome.audited_shards],
                     invariants_ok=outcome.invariants_ok)


def run_partitioned_failure_matrix(techniques: Optional[Sequence[str]] = None,
                                   patterns: Optional[Sequence[str]] = None,
                                   seed: int = 1,
                                   params: Optional[SimulationParameters]
                                   = None,
                                   workers: int = 1) -> List[LossCell]:
    """Run every (technique, crash pattern) cell, technique-major.

    The predicted verdict composes the per-shard Table 3 conditions over the
    shards the audited transaction depends on
    (:func:`~repro.experiments.harness.loss_cell`).
    """
    return run_cells(
        _matrix_cell,
        ((technique, pattern, seed, params)
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
            f"{entry.technique:>14} | {SHARD_COUNT:>6} | "
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
            seed=arguments.seed, params=params, workers=arguments.workers),
        render=render_partitioned_matrix,
        bars=lambda entries: [
            f"required pattern class not exercised: {label}"
            for label in missing_pattern_classes(entries)]
        + loss_bars(entries))


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
