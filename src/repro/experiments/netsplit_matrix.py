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
2. the fault is installed for a fixed window
   (:data:`FAULT_START`–:data:`FAULT_END`) via
   :meth:`~repro.network.lan.Lan.schedule_fault` (or the gray-failure
   degradation knobs);
3. during the window, transactions are submitted through a majority-side
   delegate and through the minority member, and their confirmations are
   counted per side — the observed progress/blocking axes;
4. the fault heals, stale minority members are resynchronised through the
   tested crash-recovery machinery (the "operator resync" a real deployment
   performs after a split), and fresh probes must commit on both sides;
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
(split-brain), a predicted-blocked minority really confirms nothing, and
the cluster is fully available again after the heal.  **Prediction match**:
the progress/blocking verdicts of :func:`netsplit_outcome` are observed.
The matrix must demonstrate at least one minority-blocking cell per engine.

When no fault is installed and the perfect detector is selected (the
defaults), none of this machinery runs and event schedules stay
bit-identical to the seed — pinned by the golden-trace tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.audit import (ConfirmedWrite, Finding, FindingKind, audit_writes,
                          divergent_keys)
from ..core.matrix import NetsplitPrediction, netsplit_outcome
from ..gcs.engines import engine_names
from ..network.faults import LinkFault
from ..partition.cluster import PartitionedCluster
from ..replication.cluster import ReplicatedDatabaseCluster
from ..workload.params import SimulationParameters
from .harness import (advance_until, confirm, demonstrated, matrix_cli, probe,
                      run_cells, small_parameters, submit_writes, violations)
from .partition_failure_matrix import branch_writes

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

#: Group fault patterns: name -> (fault kind, minority members,
#: coordinator-in-minority).  The ordering coordinator of both engines is
#: initially ``s1`` (first member in static order).
GROUP_FAULT_PATTERNS: Dict[str, Tuple[str, Tuple[str, ...], bool]] = {
    "split-minority-coordinator": ("partition", ("s1",), True),
    "split-minority-follower": ("partition", ("s3",), False),
    "asymmetric-mute-follower": ("asymmetric", ("s3",), False),
    "lossy-follower-link": ("lossy", ("s3",), False),
    "slow-follower-link": ("slow", ("s3",), False),
    "gray-degraded-disk": ("gray-disk", (), False),
    "gray-slow-cpu": ("gray-cpu", (), False),
}

#: Reduced cell set of the CI ``--smoke`` run: still spans a blocked
#: coordinator, a progressing majority and a lossy link, under both a blind
#: and a detecting detector, plus both partitioned cells.
SMOKE_GROUP_PATTERNS = ("split-minority-coordinator",
                        "split-minority-follower", "lossy-follower-link")
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
    #: Fresh transactions committed on both sides after heal + resync.
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
        """No split-brain, no lost/duplicated commit, blocked means blocked."""
        return (self.converged
                and self.post_heal_ok
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


# --------------------------------------------------------------------------- helpers
def _detector_sees(fault_kind: str, detector: str) -> bool:
    """Will the configured detector see the fault before it heals?

    Only quorum-starving faults (partitions, minority-muting asymmetry)
    produce the quorum silence the heartbeat detector triggers on, and only
    when its timeout fits inside the fault window.  The perfect detector
    never sees a link fault.
    """
    if fault_kind not in ("partition", "asymmetric"):
        return False
    config = DETECTOR_CONFIGS[detector]
    if config["failure_detector_mode"] != "heartbeat":
        return False
    return config["heartbeat_timeout"] < (FAULT_END - FAULT_START)


# --------------------------------------------------------------------------- group cells
def run_group_netsplit_scenario(engine: str, fault_pattern: str,
                                detector: str, seed: int = 1,
                                params: Optional[SimulationParameters] = None
                                ) -> NetsplitCellOutcome:
    """Run one (engine, fault pattern, detector) group cell and audit it."""
    if fault_pattern not in GROUP_FAULT_PATTERNS:
        raise ValueError(f"unknown fault pattern {fault_pattern!r}; expected "
                         f"one of {sorted(GROUP_FAULT_PATTERNS)}")
    if detector not in DETECTOR_CONFIGS:
        raise ValueError(f"unknown detector config {detector!r}; expected "
                         f"one of {sorted(DETECTOR_CONFIGS)}")
    fault_kind, minority, coordinator_in_minority = \
        GROUP_FAULT_PATTERNS[fault_pattern]
    prediction = netsplit_outcome(fault_kind, coordinator_in_minority,
                                  _detector_sees(fault_kind, detector))
    outcome = NetsplitCellOutcome(engine=engine, fault_pattern=fault_pattern,
                                  detector=detector, prediction=prediction)

    cluster = ReplicatedDatabaseCluster(
        GROUP_TECHNIQUE, seed=seed,
        params=small_parameters(params, broadcast_engine=engine,
                                **DETECTOR_CONFIGS[detector]))
    cluster.start()
    sim, lan = cluster.sim, cluster.lan
    names = cluster.server_names()
    majority = [name for name in names if name not in minority]
    #: ``s2`` is in the majority of every pattern (minorities are s1 or s3).
    majority_delegate = "s2"
    minority_delegate = minority[0] if minority else "s3"

    # -- phase 1: healthy-network confirmations ------------------------------------
    confirmed: List[ConfirmedWrite] = []
    healthy_latencies: List[float] = []
    for key in ("item-10", "item-11"):
        values = {key: f"warmup:{key}"}
        result = confirm(cluster, values, client="warmup", limit_ms=3_000.0,
                         server=majority_delegate)
        confirmed.append(ConfirmedWrite(result.txn_id, values=values))
        healthy_latencies.append(result.responded_at - result.submitted_at)

    # -- phase 2: the fault, with a duration ---------------------------------------
    if fault_kind == "partition":
        lan.schedule_fault(LinkFault.partition(fault_pattern, minority,
                                               majority),
                           at=FAULT_START, until=FAULT_END)
    elif fault_kind == "asymmetric":
        pairs = [(minority[0], name) for name in majority]
        lan.schedule_fault(LinkFault.asymmetric(fault_pattern, pairs),
                           at=FAULT_START, until=FAULT_END)
    elif fault_kind == "lossy":
        lan.schedule_fault(LinkFault.lossy(fault_pattern, minority, majority,
                                           probability=0.3),
                           at=FAULT_START, until=FAULT_END)
    elif fault_kind == "slow":
        lan.schedule_fault(LinkFault.slow(fault_pattern, minority, majority,
                                          factor=50.0),
                           at=FAULT_START, until=FAULT_END)
    elif fault_kind == "gray-disk":
        database = cluster.database(majority_delegate)
        sim.call_at(FAULT_START, lambda: database.degrade_disk(8.0))
        sim.call_at(FAULT_END, database.restore_disk)
    else:  # gray-cpu
        node = cluster.node(majority_delegate)
        sim.call_at(FAULT_START, lambda: node.degrade_cpu(20.0))
        sim.call_at(FAULT_END, node.restore_cpu)

    # -- phase 3: submissions during the window ------------------------------------
    in_flight: List[Tuple[str, str, str, object]] = []  # (side, key, value, waiter)

    def submit_at(when: float, side: str, key: str, server: str) -> None:
        def submit() -> None:
            # A refused submission (e.g. the member left the view) surfaces
            # inside the spawned process: its waiter never commits, which the
            # blocking predictions allow and ``unresolved`` counts.
            value = f"{fault_pattern}.{side}:{key}"
            in_flight.append((side, key, value, submit_writes(
                cluster, {key: value}, client=f"{side}.{key}",
                server=server)))
        sim.call_at(when, submit)

    majority_keys = ("item-20", "item-21", "item-22")
    minority_keys = ("item-30", "item-31")
    for index, key in enumerate(majority_keys):
        submit_at(FAULT_START + 20.0 + 140.0 * index, "majority", key,
                  majority_delegate)
    for index, key in enumerate(minority_keys):
        submit_at(FAULT_START + 50.0 + 180.0 * index, "minority", key,
                  minority_delegate)
    sim.run(until=FAULT_END)

    fault_latencies: List[float] = []
    for side, _key, _value, waiter in in_flight:
        result = waiter.value if waiter.triggered else None
        if result is not None and result.committed:
            if side == "majority":
                outcome.majority_commits += 1
                fault_latencies.append(result.responded_at
                                       - result.submitted_at)
            else:
                outcome.minority_commits += 1
    if fault_latencies and healthy_latencies:
        outcome.latency_inflation = (
            (sum(fault_latencies) / len(fault_latencies))
            / (sum(healthy_latencies) / len(healthy_latencies)))

    # -- phase 4: heal, resync, probe ----------------------------------------------
    sim.run(until=FAULT_END + 300.0)
    if fault_kind in ("partition", "asymmetric", "lossy"):
        # Operator resync: a member that sat out a split has missed
        # deliveries forever (the LAN never retransmits); the documented
        # remedy is a crash-recovery cycle through the tested state-transfer
        # machinery.  The member must stay down long enough for the
        # configured detector to suspect it — removal from the view is what
        # triggers both the state transfer on re-add and the re-submission
        # of messages that hung during the fault.
        config = DETECTOR_CONFIGS[detector]
        if config["failure_detector_mode"] == "heartbeat":
            down_for = (config["heartbeat_timeout"]
                        + 5.0 * config["heartbeat_period"])
            settle = 500.0
        else:
            down_for, settle = 50.0, 350.0
        for name in minority:
            cluster.crash_server(name)
            sim.run(until=sim.now + down_for)
            cluster.recover_server(name)
            sim.run(until=sim.now + settle)

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
    for _side, key, value, waiter in in_flight:
        if not waiter.triggered:
            outcome.unresolved += 1
        elif waiter.value.committed:
            confirmed.append(ConfirmedWrite(waiter.value.txn_id,
                                            values={key: value}))

    # After heal + resync every server must serve every confirmed value.
    outcome.findings = audit_writes(cluster, confirmed, caught_up=names)
    outcome.converged = not divergent_keys(
        cluster, names, ("item-10", "item-11", "item-40", "item-41")
        + majority_keys + minority_keys)
    outcome.drops_by_cause = dict(lan.dropped_by_cause)
    outcome.suspicion_count = cluster.gcs.failure_detector.suspicion_count
    return outcome


# --------------------------------------------------------------------------- partitioned cells
def _partitioned_cluster(engine: str, seed: int,
                         params: Optional[SimulationParameters]
                         ) -> PartitionedCluster:
    cluster = PartitionedCluster(
        GROUP_TECHNIQUE, seed=seed, strategy="range",
        params=small_parameters(params, partition_count=2,
                                broadcast_engine=engine,
                                cross_partition_probability=0.0))
    cluster.start()
    return cluster


def _range_key(cluster: PartitionedCluster, shard: int,
               offset: int = 1) -> str:
    key_range = cluster.routing.range_of(shard)
    position = key_range.lo + offset * key_range.width // 8
    return f"item-{position}"


def run_migration_fence_split_scenario(engine: str, seed: int = 1,
                                       params: Optional[SimulationParameters]
                                       = None) -> NetsplitCellOutcome:
    """A netsplit isolates a destination-group member during the fence.

    The migration must still complete — the destination's majority (its
    primary serves as install delegate) keeps committing deltas and the
    epoch record under the split — and the isolated member must serve the
    migrated values after heal + resync.
    """
    prediction = netsplit_outcome("partition", coordinator_in_minority=False,
                                  detector_sees_fault=False)
    outcome = NetsplitCellOutcome(engine=engine,
                                  fault_pattern="migration-fence-split",
                                  detector="perfect", prediction=prediction)
    cluster = _partitioned_cluster(engine, seed, params)
    sim = cluster.sim
    source, destination = 0, 1
    source_key = _range_key(cluster, source, offset=1)
    values = {source_key: f"fence:{source_key}"}
    confirmed = [ConfirmedWrite(
        confirm(cluster, values, client="fence-setup").txn_id, source,
        values)]

    destination_group = cluster.group(destination)
    victim = destination_group.server_names()[-1]
    everyone = [name for group in cluster.groups
                for name in group.server_names()]

    def split(_context) -> None:
        cluster.lan.install_fault(
            LinkFault.isolate("fence-split", victim, everyone))
        sim.call_after(400.0,
                       lambda: cluster.lan.remove_fault("fence-split"))

    cluster.add_failpoint("migration.fence", split)
    driver = cluster.migrate(source, destination, chunk_size=8)
    if not advance_until(cluster, lambda: driver.triggered,
                         limit=sim.now + 30_000.0):
        raise RuntimeError("migration driver never finished under the "
                           "fence split")
    report = cluster.migration_reports[-1]
    migration_ok = bool(report.completed and report.verified)
    if migration_ok:
        outcome.majority_commits = 1   # progress under the split
    else:
        outcome.problems.append(
            f"migration did not complete under the fence split "
            f"(aborted={report.aborted}, reason={report.abort_reason})")
    sim.run(until=sim.now + 300.0)

    # Resync the isolated member through crash recovery, then audit.
    cluster.crash_server(destination, victim)
    sim.run(until=sim.now + 50.0)
    cluster.recover_server(destination, victim)
    sim.run(until=sim.now + 500.0)

    probe_key = _range_key(cluster, source, offset=2)
    answer = probe(cluster, {probe_key: f"probe:{probe_key}"},
                   client="fence-probe")
    outcome.post_heal_ok = bool(answer is not None and answer.committed)
    sim.run(until=sim.now + 300.0)

    outcome.findings = audit_writes(cluster.groups, confirmed,
                                    cluster.partition_of)
    outcome.converged = (
        migration_ok and cluster.partition_of(source_key) == destination
        and not divergent_keys(destination_group,
                               destination_group.server_names(),
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
    prediction = replace(
        netsplit_outcome("gray-disk", coordinator_in_minority=False,
                         detector_sees_fault=False),
        minority_blocks=None)
    outcome = NetsplitCellOutcome(engine=engine,
                                  fault_pattern="gray-2pc-participant",
                                  detector="perfect", prediction=prediction)
    cluster = _partitioned_cluster(engine, seed, params)
    sim = cluster.sim
    remote = cluster.partition_count - 1

    def cross(tag: str):
        """Run one cross-partition update: its outcome if committed."""
        values = {_range_key(cluster, 0, offset=1 + len(confirmed)):
                  f"{tag}:local",
                  _range_key(cluster, remote, offset=1 + len(confirmed)):
                  f"{tag}:remote"}
        answer = probe(cluster, values, client=tag, limit_ms=10_000.0)
        if answer is None or not answer.committed:
            return None
        confirmed.extend(branch_writes(cluster, answer, values))
        return answer

    confirmed: List[ConfirmedWrite] = []
    healthy = cross("gray2pc-healthy")
    if healthy is None:
        raise RuntimeError("healthy cross-partition transaction failed")

    remote_group = cluster.group(remote)
    for name in remote_group.server_names():
        remote_group.database(name).degrade_disk(8.0)
    degraded = cross("gray2pc-degraded")
    for name in remote_group.server_names():
        remote_group.database(name).restore_disk()
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
             for pattern in (GROUP_FAULT_PATTERNS if patterns is None
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
        f"minority-blocking demonstrations: {len(demonstrated(entries))}")
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
                     f"/{entry.detector}: "
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
