"""Facade assembling a partitioned replicated database.

A :class:`PartitionedCluster` shards the keyspace across several independent
replica groups — each a full :class:`~repro.replication.ReplicatedDatabaseCluster`
running its own group-communication system and safety technique — all living
on one shared :class:`~repro.sim.engine.Simulator` and one shared
:class:`~repro.network.lan.Lan`.  Sharding removes the single atomic-broadcast
domain that caps the throughput of the paper's system: partitions order and
apply their transactions independently, so capacity grows with the partition
count as long as transactions stay within one partition.

Ownership of the keyspace is *live state*: an epoch-versioned
:class:`~repro.partition.routing.RoutingTable` maps key ranges to groups and
supports online :meth:`split_shard` and :meth:`migrate`, both while the
load drivers keep submitting.  The live
migration protocol (copy, dual writes, fence and drain, force-logged epoch
bump) is :class:`~repro.partition.migration.Migration`; this facade starts
it and feeds it every write that lands on its source group.

Single-partition transactions are routed straight to the owning group (the
fast path); transactions spanning several partitions go through the
:class:`~repro.partition.coordinator.CrossPartitionCoordinator`'s two-phase
commit, which composes atomicity across shards with each shard's own safety
level and validates branch routing epochs at vote collection.

Typical use::

    from repro.partition import PartitionedCluster
    from repro.workload import SimulationParameters

    params = SimulationParameters.small().with_overrides(
        partition_count=4, cross_partition_probability=0.1)
    cluster = PartitionedCluster("group-safe", params=params, seed=42)
    cluster.start()
    outcome = cluster.run_transaction(cluster.workload.next_program())
    cluster.rebalance()                  # move the hottest half-shard away
    cluster.run(until=5_000)
    print(outcome.value)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..db.operations import TransactionProgram
from ..db.wal import LogRecord
from ..network.lan import Lan
from ..obs.tracer import Observability
from ..replication.cluster import TECHNIQUES, ReplicatedDatabaseCluster
from ..replication.results import TransactionResult
from ..sim.engine import Simulator
from ..sim.events import Event
from ..sim.process import Process
from ..workload.params import SimulationParameters
from .coordinator import (ABORT_WRONG_EPOCH, CrossPartitionCoordinator,
                          CrossPartitionOutcome)
from .migration import Migration, MigrationReport
from .routing import RoutingTable
from .router import TransactionRouter
from .workload import PartitionedWorkloadGenerator


#: Base backoff between wrong-epoch submission retries (ms); grows linearly
#: with the attempt, capped at the max.  The budget must ride out a whole
#: migration fence (typically the residual response time of the source
#: shard), not just a metadata bump.
WRONG_EPOCH_RETRY_BACKOFF = 5.0
WRONG_EPOCH_MAX_BACKOFF = 50.0
#: Fenced submission attempts before a program is answered ``wrong-epoch``.
WRONG_EPOCH_MAX_RETRIES = 100


class PartitionedCluster:
    """Several independent replica groups sharing one simulated world."""

    def __init__(self, technique: str = "group-safe",
                 params: Optional[SimulationParameters] = None,
                 seed: int = 0, strategy: str = "range",
                 techniques: Optional[Sequence[str]] = None) -> None:
        # Range shards are the only placement; ``strategy`` is kept so that
        # callers still naming it keep working.
        if strategy != "range":
            raise ValueError(
                f"unknown routing strategy {strategy!r}; only 'range' "
                f"shards exist")
        self.params = params or SimulationParameters.paper()
        self.partition_count = self.params.partition_count
        if self.partition_count < 1:
            raise ValueError(
                f"partition count must be >= 1, got {self.partition_count!r}")
        if techniques is None:
            techniques = [technique] * self.partition_count
        techniques = list(techniques)
        if len(techniques) != self.partition_count:
            raise ValueError(
                f"got {len(techniques)} techniques for "
                f"{self.partition_count} partitions")
        for name in techniques:
            if name not in TECHNIQUES:
                raise ValueError(
                    f"unknown technique {name!r}; expected one of {TECHNIQUES}")
        self.techniques = techniques
        self.sim = Simulator(seed=seed)
        self.lan = Lan(self.sim, latency=self.params.network_latency)
        #: The live, epoch-versioned ownership map.
        self.routing: RoutingTable = RoutingTable.even_ranges(
            self.partition_count, self.params.item_count)
        #: One full replica group per partition, named ``p<id>.s<j>``.
        self.groups: List[ReplicatedDatabaseCluster] = [
            ReplicatedDatabaseCluster(
                group_technique, params=self.params, sim=self.sim,
                lan=self.lan, name_prefix=f"p{partition_id}.")
            for partition_id, group_technique in enumerate(techniques)]
        self.router = TransactionRouter(self.routing)
        self.workload = PartitionedWorkloadGenerator(
            self.sim, self.params, self.routing)
        self.coordinator = CrossPartitionCoordinator(self)
        #: The live migration in flight, if any (migrations are serialised).
        self.migration: Optional[Migration] = None
        #: One report per migration ever started, in start order.
        self.migration_reports: List[MigrationReport] = []
        #: Transaction ids of internal migration work (copy chunks and
        #: forwarded dual-writes) — excluded from fast-path results like the
        #: coordinator's branch installs.
        self.migration_txn_ids: set = set()
        #: Registered crash-injection hooks, keyed by protocol phase (see
        #: :meth:`add_failpoint`).  Empty outside failure experiments.
        self._failpoints: Dict[
            str, List[Callable[[Dict[str, object]], None]]] = {}
        #: Phase -> number of times a registered failpoint fired there.
        self.failpoints_fired: Dict[str, int] = {}
        self._started = False

    # ------------------------------------------------------------------ observability
    def enable_observability(self) -> Observability:
        """Attach (or return) the span tracer on this cluster's simulator.

        Idempotent.  Tracing is observation-only — spans read the simulated
        clock and append to Python lists — so enabling it cannot change the
        event schedule (the golden-trace digests hold with tracing on).
        """
        if self.sim.obs is None:
            Observability(self.sim)
        return self.sim.obs

    # ------------------------------------------------------------------ access
    def group(self, partition_id: int) -> ReplicatedDatabaseCluster:
        """The replica group owning partition ``partition_id``."""
        return self.groups[partition_id]

    def partition_of(self, key: str) -> int:
        """The partition id currently owning item ``key``."""
        return self.routing.partition_of(key)

    def server_names(self) -> List[str]:
        """Names of every server across all partitions."""
        names: List[str] = []
        for group in self.groups:
            names.extend(group.server_names())
        return names

    @property
    def migration_active(self) -> bool:
        """True while a live migration is in flight."""
        return self.migration is not None

    def routing_fenced(self, keys) -> bool:
        """True if any of ``keys`` is inside a write-fenced (migrating) range."""
        return self.routing.has_fences and self.routing.is_fenced(keys)

    # ------------------------------------------------------------------ failpoints
    #: Protocol phases at which a failpoint can fire.  Each is keyed to a
    #: WAL / 2PC / migration state transition, never to wall time, so a
    #: registered crash lands at a *deterministic* point of the protocol:
    #:
    #: * ``2pc.prepared`` — every branch voted yes; the decision record has
    #:   not been force-logged yet (context: ``xid``, ``home``,
    #:   ``delegates``).
    #: * ``2pc.decided`` — the decision record is durable and registered for
    #:   replay; phase 2 has not started (same context).
    #: * ``migration.<phase>`` for each of
    #:   :attr:`~repro.partition.migration.Migration.PHASES`, which lists
    #:   the live-migration boundaries and their context.
    FAILPOINT_PHASES = ("2pc.prepared", "2pc.decided") + tuple(
        f"migration.{phase}" for phase in Migration.PHASES)

    def add_failpoint(self, phase: str,
                      callback: Callable[[Dict[str, object]], None]) -> None:
        """Register ``callback`` to run once, when the protocol next reaches
        ``phase``.

        The callback receives a context dict (``phase``, ``cluster``, plus
        the phase-specific keys listed on :attr:`FAILPOINT_PHASES`) and
        typically calls :meth:`crash_server` / :meth:`crash_partition` — the
        deterministic crash-injection mechanism of the partitioned failure
        matrix.
        """
        if phase not in self.FAILPOINT_PHASES:
            raise ValueError(f"unknown failpoint phase {phase!r}; expected "
                             f"one of {self.FAILPOINT_PHASES}")
        self._failpoints.setdefault(phase, []).append(callback)

    def fire_failpoint(self, phase: str, **context) -> int:
        """Fire, and unregister, the failpoints of ``phase`` (internal;
        called by protocol code).

        Returns how many hooks ran.  A no-op (and O(1)) when nothing is
        registered, so production paths pay nothing for the instrumentation.
        """
        hooks = self._failpoints.pop(phase, None)
        if not hooks:
            return 0
        context["phase"] = phase
        context["cluster"] = self
        for callback in hooks:
            self.failpoints_fired[phase] = \
                self.failpoints_fired.get(phase, 0) + 1
            callback(dict(context))
        return len(hooks)

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start every replica group."""
        if self._started:
            return
        self._started = True
        for group in self.groups:
            group.start()

    def run(self, until: Optional[float] = None) -> float:
        """Advance the shared simulation (convenience passthrough)."""
        return self.sim.run(until=until)

    # ------------------------------------------------------------------ submission
    def submit(self, program: TransactionProgram, client_index: int = 0):
        """Generator: route ``program`` by the partitions it touches and
        return its answer.

        The answer is a
        :class:`~repro.replication.results.TransactionResult` (fast path) or
        a :class:`~repro.partition.coordinator.CrossPartitionOutcome`
        (coordinated path).  A program touching a range fenced by a live
        migration, or aborted by the coordinator with
        ``xpartition-wrong-epoch``, is re-routed against a fresh snapshot
        after a backoff of 5 ms per attempt (capped at 50 ms).  After
        :data:`WRONG_EPOCH_MAX_RETRIES` retries a fenced program is answered
        ``wrong-epoch`` and a coordinated one keeps the coordinator's abort.
        A single-partition program whose partition has no server taking
        submissions is answered ``partition-unavailable``.  Both refusals
        carry the time of the first attempt as ``submitted_at``.
        """
        submitted_at = self.sim.now
        keys = [operation.key for operation in program.operations]
        attempt = 0
        while True:
            if self.routing_fenced(keys):
                attempt += 1
                self.router.wrong_epoch_retries += 1
                if attempt > WRONG_EPOCH_MAX_RETRIES:
                    return self._refusal(program, submitted_at, "wrong-epoch")
            else:
                self.routing.note_keys(keys)
                snapshot = self.router.snapshot()
                partitions = self.router.classify(program, snapshot=snapshot,
                                                  keys=keys)
                obs = self.sim.obs
                if obs is not None:
                    obs.instant("router.classify", track="router",
                                labels={"partitions": len(partitions),
                                        "epoch": snapshot.epoch})
                if len(partitions) > 1:
                    event = self.coordinator.submit(
                        program, client_index=client_index, snapshot=snapshot)
                elif self.groups[partitions[0]].available_delegates():
                    event = self.submit_to_group(partitions[0], program,
                                                 client_index=client_index)
                else:
                    return self._refusal(program, submitted_at,
                                         "partition-unavailable")
                outcome = yield event
                if (outcome.abort_reason != ABORT_WRONG_EPOCH
                        or attempt >= WRONG_EPOCH_MAX_RETRIES):
                    return outcome
                attempt += 1
                self.router.wrong_epoch_retries += 1
            yield self.sim.timeout(min(WRONG_EPOCH_RETRY_BACKOFF * attempt,
                                       WRONG_EPOCH_MAX_BACKOFF))

    def _refusal(self, program: TransactionProgram, submitted_at: float,
                 reason: str) -> TransactionResult:
        """The abort answering a program no group was asked to run."""
        return TransactionResult(
            txn_id=f"rejected:{program.program_id}", committed=False,
            delegate="", submitted_at=submitted_at,
            responded_at=self.sim.now, abort_reason=reason)

    def submit_to_group(self, partition_id: int, program: TransactionProgram,
                        server: Optional[str] = None,
                        client_index: int = 0) -> Event:
        """Submit ``program`` directly to one group, with dual-write capture.

        Every install path of the cluster — the fast path and the 2PC
        coordinator's phase-2 branch commits — funnels through here, so a
        live migration sees *all* writes landing in its range and can
        forward them to the destination group.
        """
        event = self.groups[partition_id].submit(program, server=server,
                                                 client_index=client_index)
        migration = self.migration
        if migration is not None and migration.source_group == partition_id:
            migration.register_dual_write(program, event)
        return event

    def run_transaction(self, program: TransactionProgram) -> Process:
        """Run :meth:`submit` as a process that completes with the answer."""
        return self.sim.spawn(self.submit(program),
                              name=f"client.{program.program_id}")

    # ------------------------------------------------------------------ migration
    def migrate(self, shard, destination_group: int,
                chunk_size: int = 32) -> Process:
        """Start a live migration of ``shard`` to ``destination_group``.

        ``shard`` is a shard index or its exact
        :class:`~repro.partition.routing.KeyRange`; the warm copy moves
        ``chunk_size`` keys per install.  Returns the driver process
        (:meth:`~repro.partition.migration.Migration.run`, which documents
        the copy and the abort rules); run the simulation to let it finish.
        """
        key_range = self.routing.range_of(shard)
        source_group = self.routing.owner_of_range(key_range)
        if not 0 <= destination_group < self.partition_count:
            raise ValueError(f"unknown group {destination_group!r}")
        if destination_group == source_group:
            raise ValueError(
                f"shard {key_range!r} already lives on group "
                f"{destination_group}")
        if self.migration is not None:
            raise RuntimeError(
                "another migration is in flight; migrations are "
                "serialised to keep the force-logged epoch exact")
        migration = Migration(self, key_range, source_group, destination_group)
        return migration.start(chunk_size)

    # ------------------------------------------------------------------ reshaping
    def split_shard(self, shard, at: Optional[int] = None) -> int:
        """Split one shard in two (metadata only; same owner, no data moves).

        ``at`` defaults to the access-weighted median when load has been
        observed, else the midpoint — the skew-aware boundary that cuts a
        hot Zipf head in half.  Returns the new epoch.
        """
        key_range = self.routing.range_of(shard)
        owner = self.routing.owner_of_range(key_range)
        if at is None:
            at = self.routing.hot_split_position(key_range)
        epoch = self.routing.split(key_range, at=at)
        self._log_epoch_advisory(owner)
        return epoch

    def _log_epoch_advisory(self, group_id: int) -> None:
        """Append (not force) the current map on one delegate's WAL.

        A split does not change ownership, so recovering the previous
        epoch's map routes identically; the record rides the delegate's next
        group commit instead of paying a forced flush.
        """
        group = self.groups[group_id]
        delegates = group.available_delegates()
        if delegates:
            group.database(delegates[0]).wal.append(LogRecord.epoch(
                self.routing.epoch, self.routing.as_payload()))

    def rebalance(self) -> Process:
        """Move (half of) the hottest shard to the least-loaded group.

        The shard with the most observed accesses is split at its
        access-weighted median (so each side carries about half the load)
        and the hot head is migrated — live, under traffic — to the coolest
        group.  Returns the migration driver process.
        """
        index = self.routing.hottest_shard()
        key_range = self.routing.range_of(index)
        source = self.routing.owner_of_range(key_range)
        destination = self.routing.coolest_group(exclude=[source])
        if key_range.width >= 2:
            self.split_shard(key_range)
            # The low half (the head of the range — the Zipf hot set) keeps
            # the original index; migrate that one.
            key_range = self.routing.range_of(index)
        return self.migrate(key_range, destination)

    # ------------------------------------------------------------------ failures
    def crash_server(self, partition_id: int, server: str) -> None:
        """Crash one server of one partition's group."""
        obs = self.sim.obs
        if obs is not None:
            obs.instant("crash.server", track="faults",
                        labels={"partition": partition_id, "server": server})
        self.groups[partition_id].crash_server(server)

    def crash_partition(self, partition_id: int) -> None:
        """Crash every server of one partition (shard-wide outage)."""
        obs = self.sim.obs
        if obs is not None:
            obs.instant("crash.partition", track="faults",
                        labels={"partition": partition_id})
        self.groups[partition_id].crash_all()

    def recover_server(self, partition_id: int, server: str) -> Process:
        """Recover one server, then replay force-logged 2PC decisions on it.

        The replay pass resumes phase 2 of every durable decision whose
        branches were left unfinished (the coordinator died with this
        delegate), resolving in-doubt branches and finally answering the
        blocked clients.
        """
        obs = self.sim.obs
        if obs is not None:
            obs.instant("recover.server", track="faults",
                        labels={"partition": partition_id, "server": server})
        group_recovery = self.groups[partition_id].recover_server(server)

        def recovery():
            yield group_recovery
            self.coordinator.replay_decisions(partition_id, server)
            return group_recovery.value
        return self.sim.spawn(recovery(),
                              name=f"recover.p{partition_id}.{server}")

    # ------------------------------------------------------------------ recovery
    def stable_log_records(self) -> List[LogRecord]:
        """Every durable WAL record across every server of every group."""
        records: List[LogRecord] = []
        for group in self.groups:
            for name in group.server_names():
                records.extend(group.database(name).wal.stable_records())
        return records

    def recovered_routing(self) -> RoutingTable:
        """The ownership map a *restarted* cluster would recover and serve.

        Rebuilt purely from stable storage: the highest force-logged EPOCH
        record wins, falling back to the epoch-0 layout.  This is
        the crash-consistency contract of live migration — before the bump
        record is durable the old owner serves, after it the new one.
        """
        return RoutingTable.recover(
            self.stable_log_records(), group_count=self.partition_count,
            item_count=self.params.item_count)

    # ------------------------------------------------------------------ results
    def cross_partition_outcomes(self) -> List[CrossPartitionOutcome]:
        """Every coordinated outcome produced so far."""
        return list(self.coordinator.outcomes)

    def commit_counts(self) -> Dict[int, int]:
        """Per-partition count of locally committed transactions."""
        return {
            partition_id: sum(group.database(name).committed_count
                              for name in group.server_names())
            for partition_id, group in enumerate(self.groups)}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<PartitionedCluster partitions={self.partition_count} "
                f"techniques={self.techniques} epoch={self.routing.epoch}>")
