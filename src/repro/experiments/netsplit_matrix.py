"""Netsplit and gray-failure matrix: link faults and imperfect detection.

The crash-stop matrices (:mod:`repro.experiments.failure_matrix`,
:mod:`repro.experiments.partition_failure_matrix`) inject *crashes*; this
module injects the failures a LAN actually produces — netsplits, asymmetric
and lossy links, slow links, and gray failures (alive-but-degraded disks
and CPUs) — and confronts the derived predictions of
:func:`repro.core.matrix.netsplit_outcome` with observed behaviour of both
total-order engines under both failure-detector modes.

Every cell is one (engine × fault pattern × detector configuration)
simulation of a three-server ``group-1-safe`` replica group:

1. two writes are confirmed while the network is healthy;
2. the pattern's plan (:data:`GROUP_FAULT_PLANS`) puts the fault on the
   simulator's calendar for a fixed window
   (:data:`FAULT_START`–:data:`FAULT_END`): a
   :class:`~repro.network.faults.LinkFault`, or a gray-failure degradation;
3. during the window, transactions are submitted through a majority-side
   delegate and through the minority member, and their confirmations are
   counted per side — the observed progress/blocking axes;
4. the fault heals and fresh probes must commit on both sides; no server
   is restarted: a member that lost ordering messages during the fault is
   repaired by the engines' own catch-up (:mod:`repro.gcs.total_order`),
   on the first evidence of the loss the probes give it;
5. the per-key commit-integrity audit checks every confirmed write is still
   committed and served by every server, and that all servers converged to
   identical values — divergence here is the split-brain signature.

Detector configurations: ``perfect`` (the oracle detector — blind to
partitions by construction), ``hb-fast`` (heartbeat detection with a
timeout well inside the fault window: the fault *is* detected, views
change, the majority fails over) and ``hb-slow`` (timeout longer than the
fault: the detector never fires, equivalent to blindness).

Two partitioned-cluster cells ride along per engine: a netsplit isolating
a destination-group member during a live migration's write fence
(``migration-fence-split``) and a degraded-disk participant shard under
cross-partition 2PC (``gray-2pc-participant``).

**Soundness** per cell: no confirmed transaction lost, no value divergence
(split-brain), a predicted-blocked minority really confirms nothing, every
submission answered by the end of the cell, and the cluster is fully
available again after the heal.  **Prediction match**:
the progress/blocking verdicts of :func:`netsplit_outcome` are observed.
The matrix must demonstrate at least one minority-blocking cell per engine.

When no fault is installed and the perfect detector is selected (the
defaults), none of this machinery runs and event schedules stay
bit-identical to the seed — pinned by the golden-trace tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.audit import (ConfirmedWrite, Finding, FindingKind, audit_writes,
                          divergent_keys)
from ..core.matrix import NetsplitPrediction, netsplit_outcome
from ..gcs.engines import engine_names
from ..network.faults import LinkFault
from ..partition.cluster import PartitionedCluster
from ..replication.cluster import ReplicatedDatabaseCluster
from ..workload.params import SimulationParameters
from .harness import (confirm, demonstrated, matrix_cli, probe,
                      run_cells, small_parameters, submit_writes, violations)
from .partition_failure_matrix import branch_writes, migrate_shard_zero
from .plans import ALL_SERVERS, WORKLOAD, Plan, PlanDriver, plan_entry

#: Replication technique of the group cells: group delivery plus a
#: synchronous delegate flush, so degraded disks are visible in the
#: client-observed latency.
GROUP_TECHNIQUE = "group-1-safe"

#: The fault window of every cell (simulated ms).
FAULT_START = 300.0
FAULT_END = 900.0

#: Detector configurations (parameter overrides for the cell's cluster).
DETECTOR_CONFIGS: Dict[str, Dict[str, object]] = {
    "perfect": {"failure_detector_mode": "perfect"},
    "hb-fast": {"failure_detector_mode": "heartbeat",
                "heartbeat_period": 10.0, "heartbeat_timeout": 60.0},
    "hb-slow": {"failure_detector_mode": "heartbeat",
                "heartbeat_period": 10.0, "heartbeat_timeout": 2000.0},
}


def _window(fault: LinkFault) -> Plan:
    """``fault`` installed over the fault window."""
    return ((FAULT_START, "fault", (fault, FAULT_END - FAULT_START)),)


def _gray_window(degrade: str, factor: float) -> Plan:
    """The majority delegate ``s2`` degraded by ``factor`` over the window."""
    return ((FAULT_START, degrade, (("s2",), factor)),
            (FAULT_END - FAULT_START, degrade.replace("degrade", "restore"),
             ("s2",)))


#: Group fault patterns: name -> (fault kind, minority members, plan).  The
#: ordering coordinator of both engines is initially ``s1`` (first member in
#: static order); ``s2`` is in the majority of every pattern.
GROUP_FAULT_PLANS: Dict[str, Tuple[str, Tuple[str, ...], Plan]] = {
    "split-minority-coordinator": ("partition", ("s1",), _window(
        LinkFault.partition("split", ("s1",), ("s2", "s3")))),
    "split-minority-follower": ("partition", ("s3",), _window(
        LinkFault.partition("split", ("s3",), ("s1", "s2")))),
    "asymmetric-mute-follower": ("asymmetric", ("s3",), _window(
        LinkFault.asymmetric("mute", (("s3", "s1"), ("s3", "s2"))))),
    "lossy-follower-link": ("lossy", ("s3",), _window(
        LinkFault.lossy("lossy", ("s3",), ("s1", "s2"), probability=0.3))),
    "lossy-coordinator-link": ("lossy", ("s1",), _window(
        LinkFault.lossy("lossy", ("s1",), ("s2", "s3"), probability=0.3))),
    "slow-follower-link": ("slow", ("s3",), _window(
        LinkFault.slow("slow", ("s3",), ("s1", "s2"), factor=50.0))),
    "gray-degraded-disk": ("gray-disk", (), _gray_window("degrade-disk", 8.0)),
    "gray-slow-cpu": ("gray-cpu", (), _gray_window("degrade-cpu", 20.0)),
}

#: Reduced cell set of the CI ``--smoke`` run: still spans a blocked
#: coordinator, a progressing majority and a lossy link at either end of
#: the ordering protocol, under both a blind and a detecting detector, plus
#: both partitioned cells.
SMOKE_GROUP_PATTERNS = ("split-minority-coordinator",
                        "split-minority-follower", "lossy-follower-link",
                        "lossy-coordinator-link")
SMOKE_DETECTORS = ("perfect", "hb-fast")


# --------------------------------------------------------------------------- outcome type
@dataclass
class NetsplitCellOutcome:
    """Everything one netsplit cell produced, audited."""

    engine: str
    fault_pattern: str
    detector: str
    prediction: NetsplitPrediction
    #: Transactions confirmed through a majority-side delegate during the
    #: fault window.
    majority_commits: int = 0
    #: Transactions confirmed through the minority member during the window.
    minority_commits: int = 0
    #: Submissions still unanswered when the cell ended (blocked clients).
    unresolved: int = 0
    #: Fresh transactions committed on both sides after the heal.
    post_heal_ok: bool = False
    #: All servers serve identical values for every audited key at the end.
    converged: bool = False
    #: What the per-key commit-integrity audit holds against the cell.
    findings: List[Finding] = field(default_factory=list)
    #: Failures of the cell's own script (a migration or 2PC that must
    #: complete under the fault did not).
    problems: List[str] = field(default_factory=list)
    #: LAN drop counters by cause at the end of the cell.
    drops_by_cause: Dict[str, int] = field(default_factory=dict)
    #: Suspicions announced by the cell's failure detector.
    suspicion_count: int = 0
    #: During-fault / healthy mean confirmed latency (gray + slow cells).
    latency_inflation: Optional[float] = None

    @property
    def observed_loss(self) -> bool:
        """A client-confirmed transaction is gone (the matrix's loss axis)."""
        return any(finding.kind is FindingKind.LOST
                   for finding in self.findings)

    @property
    def sound(self) -> bool:
        """No split-brain, no lost/duplicated commit, blocked means blocked,
        every submission answered."""
        return (self.converged
                and self.post_heal_ok and self.unresolved == 0
                and not self.findings and not self.problems
                and (self.prediction.minority_blocks is not True
                     or self.minority_commits == 0))

    @property
    def matched(self) -> bool:
        """The tri-state progress predictions agree with the observation."""
        def agrees(predicted: Optional[bool], observed: bool) -> bool:
            return predicted is None or predicted == observed

        return (agrees(self.prediction.majority_progress,
                       self.majority_commits > 0)
                and agrees(self.prediction.minority_blocks,
                           self.minority_commits == 0))

    @property
    def demonstrated(self) -> bool:
        """The cell exhibited a blocked minority with zero losses."""
        return (self.prediction.minority_blocks is True
                and self.minority_commits == 0
                and not self.observed_loss)


# --------------------------------------------------------------------------- group cells
def run_group_netsplit_scenario(engine: str, fault_pattern: str,
                                detector: str, seed: int = 1,
                                params: Optional[SimulationParameters] = None
                                ) -> NetsplitCellOutcome:
    """Run one (engine, fault pattern, detector) group cell and audit it."""
    fault_kind, minority, window = plan_entry(GROUP_FAULT_PLANS,
                                              fault_pattern, "fault pattern")
    config = plan_entry(DETECTOR_CONFIGS, detector, "detector config")
    # Only quorum-starving faults (partitions, minority-muting asymmetry)
    # produce the quorum silence the heartbeat detector triggers on, and only
    # when its timeout fits inside the fault window.  The perfect detector
    # never sees a link fault.
    detector_sees = (fault_kind in ("partition", "asymmetric")
                     and config["failure_detector_mode"] == "heartbeat"
                     and config["heartbeat_timeout"] < FAULT_END - FAULT_START)
    prediction = netsplit_outcome(fault_kind, "s1" in minority, detector_sees)
    outcome = NetsplitCellOutcome(engine=engine, fault_pattern=fault_pattern,
                                  detector=detector, prediction=prediction)

    cluster = ReplicatedDatabaseCluster(
        GROUP_TECHNIQUE, seed=seed,
        params=small_parameters(params, broadcast_engine=engine, **config))
    cluster.start()
    sim, names = cluster.sim, cluster.server_names()
    majority_delegate = "s2"
    minority_delegate = minority[0] if minority else "s3"
    # Made before the warm-ups, the plan measures its window from the start
    # of the run; after the window (the workload's turn) comes a 300 ms heal
    # margin.
    driver = PlanDriver(cluster, window + (WORKLOAD, (300.0, "wait", None)))

    # -- phase 1: healthy-network confirmations ------------------------------------
    confirmed: List[ConfirmedWrite] = []
    healthy_latencies: List[float] = []
    for key in ("item-10", "item-11"):
        values = {key: f"warmup:{key}"}
        result = confirm(cluster, values, client="warmup", limit_ms=3_000.0,
                         server=majority_delegate)
        confirmed.append(ConfirmedWrite(result.txn_id, values=values))
        healthy_latencies.append(result.responded_at - result.submitted_at)

    # -- phase 2: the fault window goes on the calendar ----------------------------
    driver.advance()

    # -- phase 3: submissions during the window ------------------------------------
    in_flight: List[Tuple[str, str, str, object]] = []  # (side, key, value, waiter)

    def submit(side: str, key: str, server: str) -> None:
        # A refused submission (e.g. the member left the view) surfaces
        # inside the spawned process: its waiter never commits, which the
        # blocking predictions allow and ``unresolved`` counts.
        value = f"{fault_pattern}.{side}:{key}"
        in_flight.append((side, key, value, submit_writes(
            cluster, {key: value}, client=f"{side}.{key}", server=server)))

    majority_keys = ("item-20", "item-21", "item-22")
    minority_keys = ("item-30", "item-31")
    for index, key in enumerate(majority_keys):
        sim.call_at(FAULT_START + 20.0 + 140.0 * index,
                    partial(submit, "majority", key, majority_delegate))
    for index, key in enumerate(minority_keys):
        sim.call_at(FAULT_START + 50.0 + 180.0 * index,
                    partial(submit, "minority", key, minority_delegate))
    sim.run(until=FAULT_END)

    committed = [(side, waiter.value) for side, _key, _value, waiter
                 in in_flight if waiter.triggered and waiter.value.committed]
    fault_latencies = [result.responded_at - result.submitted_at
                       for side, result in committed if side == "majority"]
    outcome.majority_commits = len(fault_latencies)
    outcome.minority_commits = len(committed) - len(fault_latencies)
    if fault_latencies:
        outcome.latency_inflation = (
            (sum(fault_latencies) / len(fault_latencies))
            / (sum(healthy_latencies) / len(healthy_latencies)))

    # -- phase 4: heal, probe ------------------------------------------------------
    driver.finish()

    def probe_commits(key: str, server: str) -> bool:
        values = {key: f"probe:{key}"}
        result = probe(cluster, values, client=f"probe.{key}",
                       limit_ms=3_000.0, server=server)
        if result is None or not result.committed:
            return False
        confirmed.append(ConfirmedWrite(result.txn_id, values=values))
        return True

    outcome.post_heal_ok = (probe_commits("item-40", majority_delegate)
                            and probe_commits("item-41", minority_delegate))
    sim.run(until=sim.now + 300.0)

    # -- phase 5: the audit ----------------------------------------------------------
    # Late confirmations (a view change re-submitted a message that hung
    # during the fault) join the audited set like those of the window: once
    # a client was answered "committed", the write must be durable and
    # served, whenever it landed.
    outcome.unresolved = sum(not waiter.triggered
                             for _side, _key, _value, waiter in in_flight)
    confirmed.extend(ConfirmedWrite(waiter.value.txn_id, values={key: value})
                     for _side, key, value, waiter in in_flight
                     if waiter.triggered and waiter.value.committed)

    # After the heal every server must serve every confirmed value.
    outcome.findings = audit_writes(cluster, confirmed, caught_up=names)
    outcome.converged = not divergent_keys(
        cluster, names, ("item-10", "item-11", "item-40", "item-41")
        + majority_keys + minority_keys)
    outcome.drops_by_cause = dict(cluster.lan.dropped_by_cause)
    outcome.suspicion_count = cluster.gcs.failure_detector.suspicion_count
    return outcome


# --------------------------------------------------------------------------- partitioned cells
#: ``migration-fence-split``: when the fence goes up, destination member
#: ``p1.s3`` is cut off from every other server for 400 ms; after the
#: migration and a 300 ms heal margin, the probe's entry is its first
#: evidence of what it lost.
FENCE_SPLIT_PLAN: Plan = (
    ("migration.fence", "fault", (LinkFault.isolate("fence-split", "p1.s3", (
        "p0.s1", "p0.s2", "p0.s3", "p1.s1", "p1.s2")), 400.0)),
    WORKLOAD, (300.0, "wait", None))

#: ``gray-2pc-participant``: every server of the remote shard flushes at 8x
#: cost for the duration of one cross-partition transaction.
GRAY_2PC_PLAN: Plan = ((0.0, "degrade-disk", (ALL_SERVERS, 8.0)), WORKLOAD,
                       (0.0, "restore-disk", ALL_SERVERS))


def _partitioned_cell(engine: str, pattern: str,
                      prediction: NetsplitPrediction, seed: int,
                      params: Optional[SimulationParameters]
                      ) -> Tuple[NetsplitCellOutcome, PartitionedCluster]:
    """The outcome of a partitioned cell, and its started two-shard cluster."""
    cluster = PartitionedCluster(
        GROUP_TECHNIQUE, seed=seed, strategy="range",
        params=small_parameters(params, partition_count=2,
                                broadcast_engine=engine,
                                cross_partition_probability=0.0))
    cluster.start()
    return NetsplitCellOutcome(engine=engine, fault_pattern=pattern,
                               detector="perfect",
                               prediction=prediction), cluster


def _range_key(cluster: PartitionedCluster, shard: int,
               offset: int = 1) -> str:
    key_range = cluster.routing.range_of(shard)
    return f"item-{key_range.lo + offset * key_range.width // 8}"


def run_migration_fence_split_scenario(engine: str, seed: int = 1,
                                       params: Optional[SimulationParameters]
                                       = None) -> NetsplitCellOutcome:
    """A netsplit isolates a destination-group member during the fence.

    The migration must still complete — the destination's majority (its
    primary serves as install delegate) keeps committing deltas and the
    epoch record under the split — and the isolated member must serve the
    migrated values after the heal.
    """
    outcome, cluster = _partitioned_cell(
        engine, "migration-fence-split",
        netsplit_outcome("partition", coordinator_in_minority=False,
                         detector_sees_fault=False), seed, params)
    sim = cluster.sim
    source, destination = 0, 1
    source_key = _range_key(cluster, source, offset=1)
    values = {source_key: f"fence:{source_key}"}
    confirmed = [ConfirmedWrite(
        confirm(cluster, values, client="fence-setup").txn_id, source,
        values)]

    driver = PlanDriver(cluster, FENCE_SPLIT_PLAN, shard=destination)
    driver.advance()
    report = migrate_shard_zero(cluster, outcome.fault_pattern)
    migration_ok = bool(report.completed and report.verified)
    if migration_ok:
        outcome.majority_commits = 1   # progress under the split
    else:
        outcome.problems.append(
            f"migration did not complete under the fence split "
            f"(aborted={report.aborted}, reason={report.abort_reason})")
    driver.finish()

    probe_key = _range_key(cluster, source, offset=2)
    answer = probe(cluster, {probe_key: f"probe:{probe_key}"},
                   client="fence-probe")
    outcome.post_heal_ok = bool(answer is not None and answer.committed)
    sim.run(until=sim.now + 300.0)

    outcome.findings = audit_writes(cluster.groups, confirmed,
                                    cluster.partition_of)
    outcome.converged = (
        migration_ok and cluster.partition_of(source_key) == destination
        and not divergent_keys(driver.group, driver.group.server_names(),
                               [source_key]))
    outcome.drops_by_cause = dict(cluster.lan.dropped_by_cause)
    outcome.suspicion_count = sum(
        group.gcs.failure_detector.suspicion_count
        for group in cluster.groups if group.gcs is not None)
    return outcome


def run_gray_2pc_scenario(engine: str, seed: int = 1,
                          params: Optional[SimulationParameters] = None
                          ) -> NetsplitCellOutcome:
    """A degraded-disk participant shard under cross-partition 2PC.

    The remote shard's servers flush at 8x cost while a cross-partition
    transaction runs: 2PC must still commit atomically (the vote waits for
    the slow prepare flush), with visibly inflated latency, and recover its
    healthy latency after the degradation ends.
    """
    # This cell has no minority side (nothing is partitioned away), so the
    # derived minority axis is neutralised: only the progress-under-
    # degradation and no-loss axes are checked.
    outcome, cluster = _partitioned_cell(
        engine, "gray-2pc-participant", replace(
            netsplit_outcome("gray-disk", coordinator_in_minority=False,
                             detector_sees_fault=False),
            minority_blocks=None), seed, params)
    sim = cluster.sim
    remote = cluster.partition_count - 1

    def cross(tag: str):
        """Run one cross-partition update: its outcome if committed."""
        offset = 1 + len(confirmed)
        values = {_range_key(cluster, 0, offset): f"{tag}:local",
                  _range_key(cluster, remote, offset): f"{tag}:remote"}
        answer = probe(cluster, values, client=tag, limit_ms=10_000.0)
        if answer is None or not answer.committed:
            return None
        confirmed.extend(branch_writes(cluster, answer, values))
        return answer

    confirmed: List[ConfirmedWrite] = []
    healthy = cross("gray2pc-healthy")
    if healthy is None:
        raise RuntimeError("healthy cross-partition transaction failed")

    driver = PlanDriver(cluster, GRAY_2PC_PLAN, shard=remote)
    driver.advance()
    degraded = cross("gray2pc-degraded")
    driver.finish()
    if degraded is not None:
        outcome.majority_commits = 1
        outcome.latency_inflation = (degraded.response_time
                                     / healthy.response_time)
    else:
        outcome.problems.append(
            "cross-partition transaction failed under the degraded disk")

    outcome.post_heal_ok = cross("gray2pc-recovered") is not None
    sim.run(until=sim.now + 300.0)

    outcome.findings = audit_writes(cluster.groups, confirmed,
                                    cluster.partition_of)
    outcome.converged = not any(
        divergent_keys(cluster.group(write.group),
                       cluster.group(write.group).server_names(),
                       write.values)
        for write in confirmed)
    outcome.drops_by_cause = dict(cluster.lan.dropped_by_cause)
    return outcome


# --------------------------------------------------------------------------- the matrix
#: Partitioned-cluster patterns run once per engine (perfect detector).
PARTITIONED_FAULT_PATTERNS = {
    "migration-fence-split": run_migration_fence_split_scenario,
    "gray-2pc-participant": run_gray_2pc_scenario,
}


def _matrix_cell(cell) -> NetsplitCellOutcome:
    """Run one matrix cell."""
    engine, pattern, detector, seed, params = cell
    if pattern in PARTITIONED_FAULT_PATTERNS:
        return PARTITIONED_FAULT_PATTERNS[pattern](engine, seed=seed,
                                                   params=params)
    return run_group_netsplit_scenario(engine, pattern, detector, seed=seed,
                                       params=params)


def run_netsplit_matrix(engines: Optional[Sequence[str]] = None,
                        patterns: Optional[Sequence[str]] = None,
                        detectors: Optional[Sequence[str]] = None,
                        seed: int = 1,
                        params: Optional[SimulationParameters] = None,
                        workers: int = 1,
                        include_partitioned: bool = True
                        ) -> List[NetsplitCellOutcome]:
    """Run every (engine × fault pattern × detector) cell, engine-major."""
    engines = engine_names() if engines is None else engines
    cells = [(engine, pattern, detector, seed, params)
             for engine in engines
             for pattern in (GROUP_FAULT_PLANS if patterns is None
                             else patterns)
             for detector in (DETECTOR_CONFIGS if detectors is None
                              else detectors)]
    if include_partitioned:
        cells.extend((engine, pattern, "perfect", seed, params)
                     for engine in engines
                     for pattern in PARTITIONED_FAULT_PATTERNS)
    return run_cells(_matrix_cell, cells, workers)


def netsplit_prediction_mismatches(entries: Sequence[NetsplitCellOutcome]
                                   ) -> List[NetsplitCellOutcome]:
    """Cells whose observed progress contradicts the derived prediction."""
    return [entry for entry in entries if not entry.matched]


def engines_missing_minority_blocking(entries: Sequence[NetsplitCellOutcome]
                                      ) -> List[str]:
    """Engines with no demonstrated minority-blocking cell (acceptance bar)."""
    return sorted({entry.engine for entry in entries}
                  - {entry.engine for entry in demonstrated(entries)})


def render_netsplit_matrix(entries: Sequence[NetsplitCellOutcome]) -> str:
    """Human-readable rendering of the netsplit matrix (report file)."""
    header = (f"{'engine':>15} | {'fault pattern':>26} | {'detector':>8} | "
              f"{'majority':>12} | {'minority':>12} | {'loss':>5} | "
              f"{'conv':>5} | sound")
    lines = [header, "-" * len(header)]

    def progress_cell(predicted: Optional[bool], commits: int) -> str:
        expectation = {True: "go", False: "block", None: "?"}[predicted]
        return f"{expectation}:{commits}"

    for entry in entries:
        blocks = entry.prediction.minority_blocks
        minority_progress = None if blocks is None else not blocks
        lines.append(
            f"{entry.engine:>15} | {entry.fault_pattern:>26} | "
            f"{entry.detector:>8} | "
            f"{progress_cell(entry.prediction.majority_progress, entry.majority_commits):>12} | "
            f"{progress_cell(minority_progress, entry.minority_commits):>12} | "
            f"{'LOST' if entry.observed_loss else 'none':>5} | "
            f"{'ok' if entry.converged else 'NO':>5} | "
            f"{entry.sound and entry.matched}")
    broken = violations(entries)
    mismatches = netsplit_prediction_mismatches(entries)
    lines.append("")
    lines.append(
        f"cells: {len(entries)}  soundness violations: {len(broken)}  "
        f"prediction mismatches: {len(mismatches)}  "
        f"minority-blocking demonstrations: {len(demonstrated(entries))}  "
        f"unanswered: {sum(entry.unresolved for entry in entries)}")
    lines.append("majority/minority columns: predicted(go/block/?) : "
                 "observed confirmed commits during the fault window")
    for entry in entries:
        if (entry.latency_inflation is not None
                and entry.fault_pattern.startswith("gray")):
            lines.append(f"  gray latency inflation "
                         f"{entry.engine}/{entry.fault_pattern}"
                         f"/{entry.detector}: x{entry.latency_inflation:.1f}")
    for entry in broken:
        held = [str(finding) for finding in entry.findings] + entry.problems
        lines.append(f"  VIOLATION {entry.engine}/{entry.fault_pattern}"
                     f"/{entry.detector}: unanswered={entry.unresolved} "
                     f"{held or 'minority committed / unavailable'}")
    for entry in mismatches:
        lines.append(f"  MISMATCH {entry.engine}/{entry.fault_pattern}"
                     f"/{entry.detector}: majority={entry.majority_commits} "
                     f"minority={entry.minority_commits} vs "
                     f"{entry.prediction}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- CLI
def _engines_run(arguments) -> List[str]:
    """``--smoke`` runs the single ``--engine``; the full run spans every
    engine regardless of it (the matrix *is* the engine comparison)."""
    return [arguments.engine] if arguments.smoke else list(engine_names())


def main(argv: Optional[List[str]] = None) -> int:
    """CLI / CI smoke entry: run the matrix and enforce the acceptance bars.

    Exits non-zero on any soundness violation, prediction mismatch, or an
    engine without a demonstrated minority-blocking cell.
    """
    def run(arguments, _params):
        reduced = dict(patterns=SMOKE_GROUP_PATTERNS,
                       detectors=SMOKE_DETECTORS) if arguments.smoke else {}
        return run_netsplit_matrix(engines=_engines_run(arguments),
                                   seed=arguments.seed,
                                   workers=arguments.workers, **reduced)

    def bars(entries) -> List[str]:
        mismatches = netsplit_prediction_mismatches(entries)
        return ([f"{len(mismatches)} prediction mismatches"]
                if mismatches else []) + [
            f"no demonstrated minority-blocking cell for engine {engine}"
            for engine in engines_missing_minority_blocking(entries)]

    return matrix_cli(argv, description=__doc__.splitlines()[0],
                      report_name="netsplit_matrix", run=run,
                      render=render_netsplit_matrix, bars=bars,
                      engines_of=_engines_run)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
