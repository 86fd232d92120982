"""Live migration: one key range moves to another replica group under load.

A :class:`Migration` moves one range of a
:class:`~repro.partition.cluster.PartitionedCluster` from its owner group to
a destination group while the load drivers keep submitting.  It is a
mini-protocol layered on the existing pieces:

1. **Copy.**  The range's items are read on a source delegate and installed
   on the destination group as ordinary update-only transactions through the
   group's *own* replication technique — so the copy is exactly as durable
   and as replicated as any transaction of that group.
2. **Dual-write window.**  From the moment the migration starts, every
   client or 2PC write that commits into the migrating range on the source
   is forwarded to the destination the same way, keeping the copy fresh.
3. **Fence.**  A brief write fence holds new submissions into the range
   back (the submission path retries them until the fence lifts), in-flight
   writers are drained, and a delta pass re-copies every key whose version
   moved since the warm copy.
4. **Epoch bump.**  The *new* ownership map is force-logged (an ``EPOCH``
   write-ahead-log record) on the destination delegate before it is
   installed — so a crash mid-migration recovers to a consistent map: old
   owner before the record is durable, new owner after.

:meth:`Migration.run` is the phase sequence copy → fence and drain → delta →
verify → epoch, with two outcomes: *done* (the epoch is installed) or
*aborted* (the old owner stays authoritative).  :attr:`Migration.PHASES` is
the one list of the boundaries at which a failpoint can fire.  Migrations
are serialised: a cluster runs at most one, as ``cluster.migration``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..db.operations import TransactionProgram
from ..db.wal import LogRecord
from ..sim.events import Event
from ..sim.process import Process
from .coordinator import MAX_RETRY_BACKOFF_MS, RETRY_BACKOFF_MS
from .routing import KeyRange

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .cluster import PartitionedCluster

#: Chunk installs the warm copy keeps in flight at once, overlapping the
#: destination group's commit latency.
COPY_CONCURRENCY = 4
#: Longest the fence drain may wait for in-flight writers (ms) before the
#: migration aborts with ``fence-timeout``.
FENCE_TIMEOUT_MS = 10_000.0


@dataclass
class MigrationReport:
    """Everything one live migration did, for the experiments and tests."""

    key_range: KeyRange
    source_group: int
    destination_group: int
    started_at: float
    fence_started_at: float = 0.0
    completed_at: float = 0.0
    aborted: bool = False
    abort_reason: Optional[str] = None
    #: Keys installed by the warm copy pass.
    keys_copied: int = 0
    #: Keys re-copied by the under-fence delta pass.
    delta_keys_copied: int = 0
    #: Client/2PC writes forwarded to the destination during the window.
    forwarded_writes: int = 0
    #: True once the under-fence source/destination comparison matched.
    verified: bool = False
    #: Epoch installed by the bump (None if the migration aborted).
    epoch: Optional[int] = None
    #: When the warm copy finished (0 while running / if it never did).
    copy_completed_at: float = 0.0
    #: Chunk transactions installed by the warm copy.
    copy_chunks: int = 0
    #: Most chunk installs observed in flight at once.
    copy_inflight_peak: int = 0

    @property
    def completed(self) -> bool:
        """True if the migration installed its epoch bump."""
        return self.epoch is not None

    @property
    def duration_ms(self) -> float:
        """Wall-clock (simulated) duration of the whole migration."""
        end = self.completed_at or self.fence_started_at or self.started_at
        return end - self.started_at

    @property
    def copy_duration_ms(self) -> float:
        """How long the (overlapped) warm copy phase took."""
        if not self.copy_completed_at:
            return 0.0
        return self.copy_completed_at - self.started_at

    @property
    def fence_duration_ms(self) -> float:
        """How long new writes to the range were fenced out."""
        if not self.fence_started_at or not self.completed_at:
            return 0.0
        return self.completed_at - self.fence_started_at


class Migration:
    """One live migration of ``key_range`` to ``destination_group``.

    Owns its report and the dual-write forwards the fence drain waits out.
    It is active while ``cluster.migration is self``: :meth:`start` sets
    that and :meth:`run` clears it when it ends, whatever the outcome.
    """

    #: Protocol boundaries at which a failpoint can fire, in protocol order;
    #: the cluster names each ``migration.<phase>``.  Each is a state
    #: transition, never a wall time, so a registered crash lands at a
    #: deterministic point:
    #:
    #: * ``copy-start`` — the warm copy is about to dispatch its first chunk
    #:   (context: ``report``).
    #: * ``copy-chunk`` — one warm-copy chunk just committed on the
    #:   destination (context: ``report``, ``chunk_index``).
    #: * ``fence`` — the write fence is up, the drain has not started
    #:   (context: ``report``).
    #: * ``epoch-logged`` — the new map's EPOCH record is durable on the
    #:   destination delegate; the old owner has not been told and the table
    #:   has not moved yet (context: ``report``, ``epoch``).
    PHASES = ("copy-start", "copy-chunk", "fence", "epoch-logged")

    def __init__(self, cluster: "PartitionedCluster", key_range: KeyRange,
                 source_group: int, destination_group: int) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.key_range = key_range
        self.source_group = source_group
        self.destination_group = destination_group
        self.report = MigrationReport(
            key_range=key_range, source_group=source_group,
            destination_group=destination_group, started_at=self.sim.now)
        #: Dual-write forward processes (see :meth:`register_dual_write`).
        self.forwards: List[Process] = []

    def start(self, chunk_size: int) -> Process:
        """Make this the cluster's migration and spawn the driver (:meth:`run`).

        The source group's unanswered submissions predate the dual-write
        window, so they are registered retroactively: the fence drain waits
        them out and their values reach the destination.
        """
        cluster = self.cluster
        cluster.migration = self
        cluster.migration_reports.append(self.report)
        for event, program in cluster.groups[self.source_group].unanswered():
            self.register_dual_write(program, event)
        return self.sim.spawn(
            self.run(chunk_size),
            name=f"migration.{self.key_range!r}"
                 f".g{self.source_group}->g{self.destination_group}")

    def _reach(self, phase: str, **context) -> None:
        self.cluster.fire_failpoint(f"migration.{phase}", report=self.report,
                                    **context)

    def _in_range(self, key: str) -> bool:
        return self.key_range.contains(self.cluster.routing.position_of(key))

    # ------------------------------------------------------------------ dual writes
    def register_dual_write(self, program: TransactionProgram,
                            event: Event) -> None:
        """Forward the writes ``program`` makes into the range, once ``event``
        reports it committed on the source."""
        moved = {operation.key: operation.value
                 for operation in program.operations
                 if operation.is_write and self._in_range(operation.key)}
        if moved:
            self.forwards.append(self.sim.spawn(
                self._forward_writes(moved, event),
                name=f"migration.forward.p{self.source_group}"))

    def _forward_writes(self, values: Dict[str, object], event: Event):
        """Generator: mirror one committed source write onto the destination.

        Best-effort freshness only — interleavings between forwards and copy
        chunks are legal because the under-fence delta pass re-copies every
        key whose source version moved; correctness is anchored there.
        """
        result = yield event
        if (not getattr(result, "committed", False)
                or self.cluster.migration is not self):
            return
        self.report.forwarded_writes += len(values)
        yield from self._install_on_destination(values)

    def _install_on_destination(self, values: Dict[str, object]):
        """Generator: install ``values`` via the destination group's own
        replication technique (update-only, so certification is a
        deterministic pass).  Returns True once committed, False after 40
        attempts that found no server taking submissions or ended in an
        abort."""
        cluster = self.cluster
        group = cluster.groups[self.destination_group]
        program = TransactionProgram.of_writes(
            values, client=f"migration.g{self.source_group}"
                           f"->g{self.destination_group}")
        attempt = 0
        while True:
            attempt += 1
            backoff = min(RETRY_BACKOFF_MS * attempt, MAX_RETRY_BACKOFF_MS)
            delegates = group.available_delegates()
            if delegates:
                result = yield group.submit(program, server=delegates[0])
                cluster.migration_txn_ids.add(result.txn_id)
                if result.committed:
                    return True
            if attempt >= 40:
                return False
            yield self.sim.timeout(backoff)

    # ------------------------------------------------------------------ copy
    def _copy_chunk(self, chunk: List[str], versions_seen: Dict[str, int]):
        """Generator: read one chunk on the source, install on the destination.

        Returns None on success, else the abort reason.  Several of these run
        concurrently (up to :data:`COPY_CONCURRENCY`); the shared
        ``versions_seen`` map records each key's source version *before* its
        install, so the under-fence delta pass re-copies anything that moved.
        """
        source = self.cluster.groups[self.source_group]
        delegates = source.available_delegates()
        if not delegates:
            return "source-unavailable"
        database = source.database(delegates[0])
        values: Dict[str, object] = {}
        try:
            for key in chunk:
                # Charge the state-transfer read on the source disk.
                yield from database.buffer.read_item(key)
                values[key] = database.value_of(key)
                versions_seen[key] = database.version_of(key)
        except Exception:
            return "source-unavailable"
        installed = yield from self._install_on_destination(values)
        if not installed:
            return "destination-unavailable"
        self.report.keys_copied += len(chunk)
        self.report.copy_chunks += 1
        self._reach("copy-chunk", chunk_index=self.report.copy_chunks)
        return None

    @staticmethod
    def _reap_copies(pending: List[Process]) -> Tuple[List[Process],
                                                      Optional[str]]:
        """Drop finished chunk processes; return (still-running, failure)."""
        failure = None
        still = []
        for process in pending:
            if not process.triggered:
                still.append(process)
            elif process.ok and process.value is not None and failure is None:
                failure = process.value
        return still, failure

    # ------------------------------------------------------------------ driver
    def run(self, chunk_size: int):
        """Generator: the driver process; returns the report, done or aborted.

        Aborts — leaving the old owner authoritative — if either group loses
        all its servers or the fence drain exceeds :data:`FENCE_TIMEOUT_MS`.

        The warm copy installs ``chunk_size`` keys per transaction and keeps
        up to :data:`COPY_CONCURRENCY` chunk transactions in flight at once,
        overlapping the destination group's commit latency.
        """
        cluster, sim, report = self.cluster, self.sim, self.report
        routing = cluster.routing
        source = cluster.groups[self.source_group]
        obs = sim.obs
        root_span = copy_span = fence_span = None
        if obs is not None:
            root_span = obs.begin(
                "migration", category="txn", track="migration", root=True,
                labels={"source": self.source_group,
                        "destination": self.destination_group,
                        "range": repr(self.key_range)})
        try:
            # -- phase 1: warm copy (dual-write forwarding already active) --
            # Up to COPY_CONCURRENCY chunk transactions run in flight at
            # once, so consecutive installs overlap the destination group's
            # commit latency instead of serialising on one delegate.
            delegates = source.available_delegates()
            if not delegates:
                return self._abort("source-unavailable")
            keys = routing.keys_in(source.database(delegates[0]).items,
                                   self.key_range)
            versions_seen: Dict[str, int] = {}
            pending: List[Process] = []
            failure: Optional[str] = None
            if obs is not None:
                copy_span = obs.begin("migration.copy", category="protocol",
                                      track="migration", parent=root_span,
                                      labels={"keys": len(keys)})
            self._reach("copy-start")
            for start in range(0, len(keys), chunk_size):
                pending, failure = self._reap_copies(pending)
                while failure is None and len(pending) >= COPY_CONCURRENCY:
                    yield sim.any_of(pending)
                    pending, failure = self._reap_copies(pending)
                if failure is not None:
                    break
                pending.append(sim.spawn(
                    self._copy_chunk(keys[start:start + chunk_size],
                                     versions_seen),
                    name=f"migration.copy.g{self.source_group}"
                         f"->g{self.destination_group}.{start}"))
                report.copy_inflight_peak = max(report.copy_inflight_peak,
                                                len(pending))
            while failure is None and pending:
                yield sim.all_of(pending)
                pending, failure = self._reap_copies(pending)
            if failure is not None:
                for process in pending:
                    process.kill()
                return self._abort(failure)
            report.copy_completed_at = sim.now
            if obs is not None:
                obs.end(copy_span)
                copy_span = None

            # -- phase 2: fence the range and drain in-flight writers -------
            routing.fence(self.key_range)
            report.fence_started_at = sim.now
            if obs is not None:
                fence_span = obs.begin("migration.fence", category="protocol",
                                       track="migration", parent=root_span)
            self._reach("fence")
            drained = yield from self._drain(
                deadline=sim.now + FENCE_TIMEOUT_MS)
            if not drained:
                return self._abort("fence-timeout")

            # -- phase 3: delta copy of keys written since the warm pass ----
            delegates = source.available_delegates()
            if not delegates:
                return self._abort("source-unavailable")
            database = source.database(delegates[0])
            delta = {key: database.value_of(key) for key in keys
                     if database.version_of(key) != versions_seen.get(key)}
            if delta:
                installed = yield from self._install_on_destination(delta)
                if not installed:
                    return self._abort("destination-unavailable")
                report.delta_keys_copied = len(delta)

            # -- phase 4: verify the copy under the fence -------------------
            destination = cluster.groups[self.destination_group]
            delegates = destination.available_delegates()
            if not delegates:
                return self._abort("destination-unavailable")
            destination_db = destination.database(delegates[0])
            report.verified = all(
                database.value_of(key) == destination_db.value_of(key)
                for key in keys)
            if not report.verified:
                return self._abort("verification-failed")

            # -- phase 5: force-log the new map, then install it ------------
            # Write-ahead discipline: the durable EPOCH record must describe
            # the post-bump map, so it is logged on the destination (the new
            # authority) *before* the table moves.  A concurrent split
            # bumping the epoch during the flush re-logs with fresh numbers.
            # Durability is judged by evidence (WriteAheadLog.force), so a
            # delegate that crashed before or during the flush reads as
            # failure: no map is installed whose record only ever "flushed"
            # on a dead server.
            while True:
                payload = routing.payload_after_migrate(
                    self.key_range, self.destination_group)
                logged = yield from destination_db.wal.force(
                    LogRecord.epoch(payload["epoch"], payload))
                if not logged:
                    return self._abort("destination-unavailable")
                if routing.epoch + 1 == payload["epoch"]:
                    break
            self._reach("epoch-logged", epoch=payload["epoch"])
            if obs is not None:
                obs.instant("migration.epoch-logged", track="migration",
                            labels={"epoch": payload["epoch"]})
            delegates = source.available_delegates()
            if delegates:
                # Advisory copy on the old owner (flushed with its next
                # group commit); recovery takes the max epoch anywhere.
                source.database(delegates[0]).wal.append(
                    LogRecord.epoch(payload["epoch"], payload))
            routing.unfence(self.key_range)
            if obs is not None:
                obs.end(fence_span)
                fence_span = None
            report.epoch = routing.migrate(self.key_range,
                                           self.destination_group)
            report.completed_at = sim.now
            return report
        finally:
            # Lifts the fence of an aborted or crashed driver (idempotent).
            routing.unfence(self.key_range)
            if obs is not None:
                # An aborted or crashed driver leaves phase spans open; close
                # them here so the exported trace never dangles (obs.end is
                # idempotent, so the success path above is unaffected).
                if copy_span is not None:
                    obs.end(copy_span)
                if fence_span is not None:
                    obs.end(fence_span)
                obs.end(root_span,
                        labels={"aborted": report.aborted,
                                "abort_reason": report.abort_reason or ""})
            if cluster.migration is self:
                cluster.migration = None

    def _abort(self, reason: str) -> MigrationReport:
        """Cancel the migration, leaving the old owner authoritative.

        Safe at any point before the epoch bump: the destination's copy of
        the range is unreachable garbage (nothing routes there), and the
        driver's ``finally`` lifts the fence if it was up.
        """
        self.report.aborted = True
        self.report.abort_reason = reason
        return self.report

    def _drain(self, deadline: float):
        """Generator: wait out every writer that can still land in the range.

        Two populations: the dual-write forwards, and decided 2PC
        transactions whose phase-2 branch installs touch the range
        (``coordinator.active_installs`` — decided writes cannot be refused,
        so the range cannot move until they are durable).  Returns False if
        the deadline passes first.
        """
        while True:
            self.forwards = [process for process in self.forwards
                             if not process.triggered]
            if not self.forwards and not self._installs_touch_range():
                return True
            if self.sim.now >= deadline:
                return False
            yield self.sim.timeout(1.0)

    def _installs_touch_range(self) -> bool:
        # repro: allow(ordering-hazard): any-overlap boolean scan, order-free
        for keys in self.cluster.coordinator.active_installs.values():
            for key in keys:
                if self._in_range(key):
                    return True
        return False
