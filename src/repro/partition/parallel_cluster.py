"""A partitioned cluster whose replica groups run as parallel shards.

The serial :class:`~repro.partition.cluster.PartitionedCluster` keeps every
replica group on one shared simulator — coordinator and migration driver call
straight into the other groups' objects, which is exactly what caps the whole
experiment at one core.  This module re-cuts the model along the shard
boundary so each replica group is a self-contained world (its own
:class:`~repro.sim.engine.Simulator`, its own LAN, its own
:class:`~repro.replication.cluster.ReplicatedDatabaseCluster` and workload)
and **all** cross-shard interaction travels as
:class:`~repro.sim.parallel.CrossShardMessage` values:

* **2PC traffic** — a coordinator shard terminates its local branch through
  its own replication technique, then exchanges ``prepare`` / ``vote`` /
  ``decision`` legs with the participant shard, each leg costing the
  cross-shard latency.  The participant terminates its branch through *its*
  technique between prepare and vote, so both branches pay the full local
  replication cost and the client sees the 2PC round trips on top.
* **Migration traffic** — a scripted warm copy streams chunked item
  snapshots to the destination shard, fences, waits for the fence ack and
  then broadcasts the epoch bump to every shard (the routing-table install).
* **Failure injection** — crash/recover schedules and migration-phase
  failpoints fire inside the owning shard's world, exactly as in the serial
  failure matrices.

Because every cross-shard leg costs at least ``cross_shard_latency``, that
latency is a valid conservative lookahead for
:func:`repro.sim.parallel.run_sharded` — no shard can ever receive a message
in its simulated past.  Everything that could leak host-process state into
the simulation is pinned per shard: the random streams derive from a
per-shard seed, and transaction program identifiers are re-assigned from a
shard-local counter (the module-global counter in
:mod:`repro.db.operations` would otherwise make transaction ids depend on
how many shards share a worker process).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..db.operations import Operation, OperationType, TransactionProgram
from ..replication.cluster import ReplicatedDatabaseCluster
from ..replication.results import RunStatistics, TransactionResult
from ..sim.engine import Simulator
from ..sim.parallel import (CrossShardMessage, ParallelRunReport, ShardSpec,
                            run_sharded)
from ..workload.params import SimulationParameters
from .stats import PartitionedRunStatistics

#: Multiplier deriving a shard's simulator seed from the scenario seed.
#: Prime and large so neighbouring scenario seeds never collide across
#: neighbouring shard ids.
_SHARD_SEED_STRIDE = 1_000_003

#: Migration phases at which a failpoint may crash a server (mirrors the
#: serial cluster's failpoint discipline).
FAILPOINT_PHASES = ("migration.copy-start", "migration.copy-chunk",
                    "migration.fence", "migration.epoch-logged")


# -- scenario description (picklable, crosses the process boundary) -----------------------


@dataclass(frozen=True)
class MigrationPlan:
    """One scripted key-range migration between two shards."""

    start_ms: float
    source_shard: int
    dest_shard: int
    key_count: int
    chunk_size: int = 32
    #: Simulated milliseconds of copy work per chunk on the source.
    chunk_service_ms: float = 2.0
    #: Optional ``(phase, server_index, recover_after_ms)`` — crash that
    #: server of the source shard when ``phase`` first fires; ``None`` as the
    #: recovery delay leaves the server down.
    failpoint: Optional[Tuple[str, int, Optional[float]]] = None


@dataclass(frozen=True)
class CrashPlan:
    """One scripted server crash (and optional recovery) inside a shard."""

    at_ms: float
    shard: int
    server_index: int
    recover_at_ms: Optional[float] = None


@dataclass(frozen=True)
class ShardScenario:
    """Everything a worker process needs to rebuild one shard's world."""

    technique: str = "group-safe"
    shard_count: int = 4
    seed: int = 1
    items_per_shard: int = 200
    servers_per_shard: int = 3
    load_tps_per_shard: float = 40.0
    #: Probability that an arrival becomes a cross-shard 2PC transaction.
    cross_shard_probability: float = 0.1
    #: One-way latency of every cross-shard leg (ms) — also the conservative
    #: lookahead, so it must stay the *minimum* cross-shard delay.
    cross_shard_latency: float = 4.0
    #: Operations of the participant branch of a cross-shard transaction.
    remote_branch_ops: int = 2
    duration_ms: float = 2_000.0
    migrations: Tuple[MigrationPlan, ...] = ()
    crashes: Tuple[CrashPlan, ...] = ()
    #: Record golden event traces and return their digests (slower).
    trace: bool = False
    #: Attach span tracers and return per-shard Chrome trace payloads.
    observe: bool = False
    #: Total-order broadcast engine each shard's replica group runs on
    #: (registry name, see :mod:`repro.gcs.engines`).
    broadcast_engine: str = "fixed-sequencer"

    @property
    def lookahead(self) -> float:
        """The conservative lookahead of this scenario."""
        return self.cross_shard_latency


# -- per-shard results (picklable, travel back to the coordinator) ------------------------


@dataclass
class CrossShardOutcome:
    """Client-visible outcome of one cross-shard 2PC transaction."""

    txn_id: str
    committed: bool
    response_time: float
    abort_reason: Optional[str]
    coordinator_shard: int
    participant_shard: int


@dataclass
class ShardMigrationReport:
    """One scripted migration as observed on the source shard."""

    migration_id: str
    source_shard: int
    dest_shard: int
    key_count: int
    chunks: int
    started_ms: float
    fenced_ms: Optional[float] = None
    completed_ms: Optional[float] = None
    completed: bool = False
    epoch: Optional[int] = None


@dataclass
class ShardCrashRecord:
    """One injected crash or recovery, in the owning shard's time."""

    at_ms: float
    shard: int
    server: str
    kind: str


@dataclass
class ShardResult:
    """Everything one shard reports back after the run."""

    shard_id: int
    events_scheduled: int
    final_time_ms: float
    single_results: List[TransactionResult] = field(default_factory=list)
    cross_results: List[CrossShardOutcome] = field(default_factory=list)
    #: Locally committed transactions summed over the shard's databases.
    commits_on_shard: int = 0
    #: Participant branches this shard terminated for remote coordinators.
    participant_branches: int = 0
    epoch_commits: Dict[int, int] = field(default_factory=dict)
    final_epoch: int = 0
    migrations: List[ShardMigrationReport] = field(default_factory=list)
    crash_events: List[ShardCrashRecord] = field(default_factory=list)
    failpoints_fired: Dict[str, int] = field(default_factory=dict)
    #: sha256 over the golden event trace (``scenario.trace`` runs only).
    digest: Optional[str] = None
    trace_length: int = 0
    #: Chrome trace payload (``scenario.observe`` runs only).
    chrome: Optional[Dict[str, Any]] = None


# -- the shard world ----------------------------------------------------------------------


class ShardWorld:
    """One replica group running as a self-contained shard.

    Implements the shard protocol of :func:`repro.sim.parallel.run_sharded`:
    ``peek`` / ``run_before`` / ``inject`` / ``drain_outbox`` / ``finish``.
    """

    def __init__(self, shard_id: int, scenario: ShardScenario) -> None:
        self.shard_id = shard_id
        self.scenario = scenario
        self.sim = Simulator(
            seed=scenario.seed * _SHARD_SEED_STRIDE + shard_id)
        self._trace = self.sim.enable_trace() if scenario.trace else None
        if scenario.observe:
            from ..obs.tracer import Observability
            Observability(self.sim)
        params = SimulationParameters.small(
            server_count=scenario.servers_per_shard,
            item_count=scenario.items_per_shard).with_overrides(
                broadcast_engine=scenario.broadcast_engine)
        self.cluster = ReplicatedDatabaseCluster(
            scenario.technique, params=params, sim=self.sim,
            name_prefix=f"p{shard_id}.")
        self.cluster.start()
        self._servers = self.cluster.server_names()

        self._outbox: List[CrossShardMessage] = []
        self._send_seq = 0
        self._program_seq = 0
        self._xact_seq = 0
        self._next_client = 0
        self.routing_epoch = 0

        self.single_results: List[TransactionResult] = []
        self.cross_results: List[CrossShardOutcome] = []
        self.epoch_commits: Dict[int, int] = {}
        self.migration_reports: List[ShardMigrationReport] = []
        self.crash_events: List[ShardCrashRecord] = []
        self.failpoints_fired: Dict[str, int] = {}
        self.participant_branches = 0
        self._pending_votes: Dict[str, Any] = {}
        self._fence_acks: Dict[str, Any] = {}
        self._armed_failpoints: Dict[str, Tuple[int, Optional[float]]] = {}

        self._xshard_stream = self.sim.random.stream("parallel.xshard")
        self._target_stream = self.sim.random.stream("parallel.xshard.target")
        self._remote_op_stream = self.sim.random.stream("parallel.remote.ops")

        for plan in scenario.crashes:
            if plan.shard == shard_id:
                self._schedule_crash(plan)
        for plan in scenario.migrations:
            if plan.source_shard == shard_id:
                self.sim.call_at(plan.start_ms, self._start_migration(plan))
        if scenario.load_tps_per_shard > 0:
            self.sim.spawn(self._arrivals(),
                           name=f"shard{shard_id}.arrivals")

    # -- shard protocol -------------------------------------------------------------------
    def peek(self) -> float:
        return self.sim.peek()

    def run_before(self, bound: float) -> None:
        self.sim.run_before(bound)

    def inject(self, message: CrossShardMessage) -> None:
        self.sim.call_at(message.deliver_at, self._dispatch(message))

    def drain_outbox(self) -> List[CrossShardMessage]:
        drained = self._outbox
        self._outbox = []
        return drained

    def finish(self, until: float) -> ShardResult:
        result = ShardResult(
            shard_id=self.shard_id,
            events_scheduled=self.sim.scheduled_events,
            final_time_ms=until,
            single_results=self.single_results,
            cross_results=self.cross_results,
            commits_on_shard=sum(
                database.committed_count
                # repro: allow(ordering-hazard): integer sum, exact at any order
                for database in self.cluster.databases.values()),
            participant_branches=self.participant_branches,
            epoch_commits=dict(self.epoch_commits),
            final_epoch=self.routing_epoch,
            migrations=self.migration_reports,
            crash_events=self.crash_events,
            failpoints_fired=dict(self.failpoints_fired))
        if self._trace is not None:
            digest = hashlib.sha256()
            for entry in self._trace:
                digest.update(repr(entry).encode())
            result.digest = digest.hexdigest()
            result.trace_length = len(self._trace)
        if self.sim.obs is not None:
            from ..obs.export import chrome_trace
            result.chrome = chrome_trace(
                self.sim.obs, metadata={"shard": self.shard_id})
        return result

    # -- outgoing messages ----------------------------------------------------------------
    def _send(self, dest_shard: int, kind: str, payload: Any) -> None:
        self._send_seq += 1
        self._outbox.append(CrossShardMessage(
            deliver_at=self.sim.now + self.scenario.cross_shard_latency,
            dest_shard=dest_shard, origin_shard=self.shard_id,
            origin_seq=self._send_seq, kind=kind, payload=payload))

    def _dispatch(self, message: CrossShardMessage):
        handler = {
            "prepare": self._on_prepare,
            "vote": self._on_vote,
            "decision": self._on_decision,
            "copy": self._on_copy,
            "fence": self._on_fence,
            "fence-ack": self._on_fence_ack,
            "epoch": self._on_epoch,
        }[message.kind]

        def deliver() -> None:
            handler(message)
        return deliver

    # -- workload -------------------------------------------------------------------------
    def _next_program(self, client: str) -> TransactionProgram:
        program = self.cluster.workload.next_program(client=client)
        # Re-key off the process-global program counter: transaction ids must
        # depend only on this shard's history, not on co-resident shards.
        self._program_seq += 1
        program.program_id = self._program_seq
        return program

    def _arrivals(self):
        workload = self.cluster.workload
        load = self.scenario.load_tps_per_shard
        cross_probability = (self.scenario.cross_shard_probability
                             if self.scenario.shard_count > 1 else 0.0)
        while True:
            yield self.sim.timeout(workload.interarrival_time(load))
            index = self._next_client
            self._next_client += 1
            delegate = self.cluster.choose_delegate(index)
            if not self.cluster.node(delegate).is_up:
                continue
            program = self._next_program(
                client=f"p{self.shard_id}.client-{index}")
            if (cross_probability and
                    self._xshard_stream.random() < cross_probability):
                participant = self._pick_participant()
                self.sim.spawn(
                    self._coordinate(program, delegate, participant),
                    name=f"shard{self.shard_id}.xact.{program.program_id}")
            else:
                self.sim.spawn(
                    self._local_transaction(program, delegate),
                    name=f"shard{self.shard_id}.txn.{program.program_id}")

    def _pick_participant(self) -> int:
        offset = self._target_stream.randrange(self.scenario.shard_count - 1)
        return (self.shard_id + 1 + offset) % self.scenario.shard_count

    def _local_transaction(self, program, delegate):
        submitted_at = self.sim.now
        result = yield self.cluster.submit(program, server=delegate)
        self.single_results.append(result)
        if result.committed:
            self.epoch_commits[self.routing_epoch] = \
                self.epoch_commits.get(self.routing_epoch, 0) + 1

    # -- cross-shard 2PC ------------------------------------------------------------------
    def _coordinate(self, program, delegate, participant: int):
        submitted_at = self.sim.now
        self._xact_seq += 1
        txn_id = f"x{self.shard_id}.{self._xact_seq}"
        local_result = yield self.cluster.submit(program, server=delegate)
        vote_event = self.sim.event()
        self._pending_votes[txn_id] = vote_event
        operations = tuple(
            (self._remote_op_stream.randrange(self.scenario.items_per_shard),
             self._remote_op_stream.random() < 0.5)
            for _ in range(self.scenario.remote_branch_ops))
        self._send(participant, "prepare",
                   (txn_id, self.shard_id, operations))
        participant_committed = yield vote_event
        del self._pending_votes[txn_id]
        committed = bool(local_result.committed and participant_committed)
        self._send(participant, "decision", (txn_id, committed))
        if committed:
            abort_reason = None
        elif not local_result.committed:
            abort_reason = local_result.abort_reason or "local-branch-abort"
        else:
            abort_reason = "participant-branch-abort"
        self.cross_results.append(CrossShardOutcome(
            txn_id=txn_id, committed=committed,
            response_time=self.sim.now - submitted_at,
            abort_reason=abort_reason,
            coordinator_shard=self.shard_id,
            participant_shard=participant))
        if committed:
            self.epoch_commits[self.routing_epoch] = \
                self.epoch_commits.get(self.routing_epoch, 0) + 1

    def _on_prepare(self, message: CrossShardMessage) -> None:
        txn_id, origin_shard, operations = message.payload
        self.sim.spawn(self._participant(txn_id, origin_shard, operations),
                       name=f"shard{self.shard_id}.branch.{txn_id}")

    def _participant(self, txn_id: str, origin_shard: int, operations):
        ops = []
        for position, (item_index, is_write) in enumerate(operations):
            key = f"item-{item_index}"
            if is_write:
                ops.append(Operation(OperationType.WRITE, key,
                                     value=f"{txn_id}@{position}"))
            else:
                ops.append(Operation(OperationType.READ, key))
        self._program_seq += 1
        program = TransactionProgram(operations=tuple(ops),
                                     client=f"branch.{txn_id}")
        program.program_id = self._program_seq
        self.participant_branches += 1
        delegate = self.cluster.choose_delegate(self.participant_branches)
        if not self.cluster.node(delegate).is_up:
            self._send(origin_shard, "vote", (txn_id, False))
            return
        result = yield self.cluster.submit(program, server=delegate)
        self._send(origin_shard, "vote", (txn_id, result.committed))

    def _on_vote(self, message: CrossShardMessage) -> None:
        txn_id, committed = message.payload
        waiter = self._pending_votes.get(txn_id)
        if waiter is not None:
            waiter.succeed(committed)

    def _on_decision(self, message: CrossShardMessage) -> None:
        # The participant branch already terminated through this shard's
        # replication technique at prepare time; the decision leg closes the
        # protocol (and is what the fence/epoch machinery synchronises with).
        pass

    # -- scripted migration ---------------------------------------------------------------
    def _start_migration(self, plan: MigrationPlan):
        def starter() -> None:
            self.sim.spawn(self._migrate(plan),
                           name=f"shard{self.shard_id}.migration")
        return starter

    def _migrate(self, plan: MigrationPlan):
        self._xact_seq += 1
        migration_id = f"m{self.shard_id}.{self._xact_seq}"
        if plan.failpoint is not None:
            phase, server_index, recover_after = plan.failpoint
            self._armed_failpoints[phase] = (server_index, recover_after)
        store = self.cluster.databases[self._servers[0]].items
        keys = store.keys()[:plan.key_count]
        chunks = [keys[start:start + plan.chunk_size]
                  for start in range(0, len(keys), plan.chunk_size)]
        report = ShardMigrationReport(
            migration_id=migration_id, source_shard=self.shard_id,
            dest_shard=plan.dest_shard, key_count=len(keys),
            chunks=len(chunks), started_ms=self.sim.now)
        self.migration_reports.append(report)
        self._fire_failpoint("migration.copy-start")
        for chunk in chunks:
            yield self.sim.timeout(plan.chunk_service_ms)
            snapshot = tuple(
                (key, state.value, state.version)
                for key, state in zip(chunk, map(store.committed, chunk)))
            self._send(plan.dest_shard, "copy", (migration_id, snapshot))
            self._fire_failpoint("migration.copy-chunk")
        fence_event = self.sim.event()
        self._fence_acks[migration_id] = fence_event
        self._send(plan.dest_shard, "fence", (migration_id,))
        self._fire_failpoint("migration.fence")
        yield fence_event
        del self._fence_acks[migration_id]
        report.fenced_ms = self.sim.now
        new_epoch = self.routing_epoch + 1
        self._apply_epoch(new_epoch)
        for shard in range(self.scenario.shard_count):
            if shard != self.shard_id:
                self._send(shard, "epoch", (migration_id, new_epoch))
        self._fire_failpoint("migration.epoch-logged")
        report.completed_ms = self.sim.now
        report.completed = True
        report.epoch = new_epoch

    def _on_copy(self, message: CrossShardMessage) -> None:
        migration_id, snapshot = message.payload
        for server in self._servers:
            store = self.cluster.databases[server].items
            for key, value, version in snapshot:
                imported = f"{migration_id}:{key}"
                if store.lookup(imported) is None:
                    store.create(imported, value)
                else:
                    store.get(imported).value = value

    def _on_fence(self, message: CrossShardMessage) -> None:
        (migration_id,) = message.payload
        self._send(message.origin_shard, "fence-ack", (migration_id,))

    def _on_fence_ack(self, message: CrossShardMessage) -> None:
        (migration_id,) = message.payload
        waiter = self._fence_acks.get(migration_id)
        if waiter is not None:
            waiter.succeed()

    def _on_epoch(self, message: CrossShardMessage) -> None:
        _migration_id, epoch = message.payload
        self._apply_epoch(epoch)

    def _apply_epoch(self, epoch: int) -> None:
        if epoch > self.routing_epoch:
            self.routing_epoch = epoch

    # -- failure injection ----------------------------------------------------------------
    def _schedule_crash(self, plan: CrashPlan) -> None:
        server = self._servers[plan.server_index]

        def crash() -> None:
            self.cluster.crash_server(server)
            self.crash_events.append(ShardCrashRecord(
                at_ms=self.sim.now, shard=self.shard_id, server=server,
                kind="crash"))

        def recover() -> None:
            self.cluster.recover_server(server)
            self.crash_events.append(ShardCrashRecord(
                at_ms=self.sim.now, shard=self.shard_id, server=server,
                kind="recover"))

        self.sim.call_at(plan.at_ms, crash)
        if plan.recover_at_ms is not None:
            self.sim.call_at(plan.recover_at_ms, recover)

    def _fire_failpoint(self, phase: str) -> None:
        armed = self._armed_failpoints.pop(phase, None)
        if armed is None:
            return
        server_index, recover_after = armed
        server = self._servers[server_index]
        self.failpoints_fired[phase] = self.failpoints_fired.get(phase, 0) + 1
        if self.cluster.node(server).is_up:
            self.cluster.crash_server(server)
            self.crash_events.append(ShardCrashRecord(
                at_ms=self.sim.now, shard=self.shard_id, server=server,
                kind=f"failpoint:{phase}"))
        if recover_after is not None:
            def recover() -> None:
                self.cluster.recover_server(server)
                self.crash_events.append(ShardCrashRecord(
                    at_ms=self.sim.now, shard=self.shard_id, server=server,
                    kind="recover"))
            self.sim.call_at(self.sim.now + recover_after, recover)


def build_shard_world(shard_id: int, scenario: ShardScenario) -> ShardWorld:
    """The :class:`~repro.sim.parallel.ShardSpec` builder entry point."""
    return ShardWorld(shard_id, scenario)


# -- running a scenario -------------------------------------------------------------------


@dataclass
class ParallelShardedReport:
    """One conservative parallel run of a :class:`ShardScenario`."""

    scenario: ShardScenario
    workers: int
    windows: int
    messages: int
    shard_results: Dict[int, ShardResult]
    statistics: PartitionedRunStatistics
    #: Worker count the caller requested, before clamping to the shard count.
    requested_workers: int = 0
    #: Wall-clock split of the run (see ParallelRunReport).
    build_seconds: float = 0.0
    run_seconds: float = 0.0

    @property
    def digests(self) -> Dict[int, Optional[str]]:
        """Per-shard golden-trace digests (``None`` without ``trace``)."""
        return {shard_id: result.digest
                for shard_id, result in sorted(self.shard_results.items())}

    @property
    def total_events(self) -> int:
        """Events scheduled across all shards (the aggregate numerator)."""
        return sum(result.events_scheduled
                   # repro: allow(ordering-hazard): integer sum, exact at any order
                   for result in self.shard_results.values())


def merge_statistics(scenario: ShardScenario,
                     shard_results: Dict[int, ShardResult]
                     ) -> PartitionedRunStatistics:
    """Fold per-shard results into one :class:`PartitionedRunStatistics`.

    Shards are folded in ascending shard id, so the merged statistics are a
    pure function of the per-shard results — identical at every worker count.
    """
    statistics = PartitionedRunStatistics(
        technique=scenario.technique,
        partition_count=scenario.shard_count,
        offered_load_tps=scenario.load_tps_per_shard * scenario.shard_count,
        simulated_duration_ms=scenario.duration_ms)
    statistics.single = RunStatistics("single-partition")
    statistics.cross = RunStatistics("cross-partition")
    statistics.single.simulated_duration_ms = scenario.duration_ms
    statistics.cross.simulated_duration_ms = scenario.duration_ms
    crash_events: List[ShardCrashRecord] = []
    for shard_id in sorted(shard_results):
        result = shard_results[shard_id]
        for outcome in result.single_results:
            statistics.single.record(outcome)
        for outcome in result.cross_results:
            statistics.cross.record(outcome)
        statistics.per_partition_commits[shard_id] = result.commits_on_shard
        for epoch, commits in sorted(result.epoch_commits.items()):
            statistics.epoch_commits[epoch] = \
                statistics.epoch_commits.get(epoch, 0) + commits
        statistics.migrations.extend(result.migrations)
        crash_events.extend(result.crash_events)
        for phase, count in sorted(result.failpoints_fired.items()):
            statistics.failpoints_fired[phase] = \
                statistics.failpoints_fired.get(phase, 0) + count
        statistics.final_epoch = max(statistics.final_epoch,
                                     result.final_epoch)
    crash_events.sort(key=lambda record: (record.at_ms, record.shard,
                                          record.server))
    statistics.injected_crashes = crash_events
    return statistics


def run_parallel_sharded(scenario: ShardScenario, workers: int = 0,
                         detect_races: bool = False) -> ParallelShardedReport:
    """Run ``scenario`` to completion with ``workers`` worker processes.

    ``workers=0`` runs the serial reference engine (all shards in this
    process); any positive count fans the shards out over that many worker
    processes.  Per-shard traces, results and the merged statistics are
    identical in every mode.  ``detect_races=True`` enables the window
    protocol cross-checks of :func:`repro.sim.parallel.run_sharded` —
    observation only, no schedule changes.
    """
    specs = [ShardSpec(shard_id=shard_id,
                       builder="repro.partition.parallel_cluster:"
                               "build_shard_world",
                       config=scenario)
             for shard_id in range(scenario.shard_count)]
    report: ParallelRunReport = run_sharded(
        specs, lookahead=scenario.lookahead,
        until=scenario.duration_ms, workers=workers,
        detect_races=detect_races)
    statistics = merge_statistics(scenario, report.shard_results)
    return ParallelShardedReport(
        scenario=scenario, workers=report.workers, windows=report.windows,
        messages=report.messages, shard_results=report.shard_results,
        statistics=statistics, requested_workers=report.requested_workers,
        build_seconds=report.build_seconds, run_seconds=report.run_seconds)


def merged_chrome_trace(report: ParallelShardedReport) -> Dict[str, Any]:
    """One Chrome trace for the whole run — one ``pid`` per shard."""
    from ..obs.export import merge_chrome_traces
    traces = {shard_id: result.chrome
              for shard_id, result in sorted(report.shard_results.items())
              if result.chrome is not None}
    if not traces:
        raise ValueError(
            "no shard recorded a trace; run the scenario with observe=True")
    return merge_chrome_traces(traces)
