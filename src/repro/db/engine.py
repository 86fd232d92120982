"""The local database engine hosted on one server.

:class:`LocalDatabase` assembles the pieces of the database component of the
paper's architecture (Fig. 1 / Sect. 2.2): the logical item store, the lock
manager, the write-ahead log, the buffer pool and the testable-transaction
registry, all bound to one :class:`~repro.network.node.Node`.

It deliberately exposes *mechanisms*, not *policy*: whether writes are applied
synchronously or buffered, whether the commit record is flushed before or
after the client is answered, and whether conflicts are handled by locking or
by certification are decisions made by the replication technique built on top
(``repro.replication``), because those decisions are precisely what
distinguishes 1-safe, group-safe, group-1-safe and 2-safe replication.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from ..network.node import Node
from ..sim.engine import Simulator
from .buffer import BufferPool
from .errors import TransactionAborted, UnknownItemError
from .items import ItemStore
from .locks import LockManager, LockMode
from .operations import TransactionProgram
from .recovery import redo_from_log
from .testable import TestableTransactionRegistry
from .transaction import Transaction, TransactionStatus, WriteSetMessage
from .wal import WriteAheadLog

_local_txn_ids = itertools.count(1)


class LocalDatabase:
    """One server's local database component."""

    def __init__(self, sim: Simulator, node: Node, item_count: int = 0,
                 hit_ratio: float = 0.2,
                 read_time_low: float = 4.0, read_time_high: float = 12.0,
                 write_time_low: float = 4.0, write_time_high: float = 12.0,
                 buffer_max_dirty: Optional[int] = None,
                 background_write_factor: float = 1.0) -> None:
        self.sim = sim
        self.node = node
        self.items = ItemStore(item_count)
        self.locks = LockManager(sim, name=f"{node.name}.locks")
        self.wal = WriteAheadLog(sim, node, write_time_low=write_time_low,
                                 write_time_high=write_time_high)
        self.buffer = BufferPool(sim, node, hit_ratio=hit_ratio,
                                 read_time_low=read_time_low,
                                 read_time_high=read_time_high,
                                 write_time_low=write_time_low,
                                 write_time_high=write_time_high,
                                 max_dirty=buffer_max_dirty,
                                 background_write_factor=background_write_factor)
        self.testable = TestableTransactionRegistry(node)
        #: Monotonic counter of certified commits (the logical total order
        #: position at which each commit was installed on this copy).
        self.commit_counter = 0
        #: Statistics.
        self.committed_count = 0
        self.aborted_count = 0
        self.certification_aborts = 0
        node.add_listener(self._on_node_event)

    # ------------------------------------------------------------------ begin
    def begin(self, program: TransactionProgram, delegate: Optional[str] = None,
              txn_id: Optional[str] = None) -> Transaction:
        """Create the runtime transaction for ``program`` on this server."""
        delegate_name = delegate or self.node.name
        identifier = txn_id or f"{delegate_name}:{program.program_id}"
        transaction = Transaction(txn_id=identifier, program=program,
                                  delegate=delegate_name,
                                  start_time=self.sim.now)
        return transaction

    # ------------------------------------------------------------- read / write
    def read(self, transaction: Transaction, key: str, use_lock: bool = False):
        """Generator: read ``key``, recording its version in the read set.

        With ``use_lock`` the read takes a shared lock first (2PL, used by the
        lazy technique); without it the read is an unlocked snapshot read whose
        version is later validated by certification (database state machine).
        Returns the item value.
        """
        item = self.items.lookup(key)
        if item is None:
            raise UnknownItemError(key)
        if use_lock:
            grant = self.locks.acquire(transaction.txn_id, key, LockMode.SHARED)
            yield grant
        # Inlined self.buffer.read_item(key) — identical charges and stream
        # draws, one generator object less on the per-operation read path
        # (the single hottest charge sequence of transaction execution).
        # MUST stay in lockstep with BufferPool.read_item (still used by the
        # migration copy path); test_engine_read_matches_buffer_read_item
        # pins the two implementations to identical accounting and timing.
        buffer = self.buffer
        node = buffer.node
        obs = self.sim.obs
        span = None
        if obs is not None:
            span = obs.begin("db.read", category="disk",
                             track=f"server.{node.name}",
                             parent=("txn", transaction.txn_id),
                             labels={"key": key})
        try:
            yield node.cpu.use(node.cpu_time_per_io)
            if buffer._hit_stream.random() < buffer.hit_ratio:
                buffer.read_hits += 1
            else:
                buffer.read_misses += 1
                yield node.disk.use(buffer._read_duration())
        finally:
            if span is not None:
                obs.end(span)
        # The version is read after the I/O completed (it may have advanced
        # while the read occupied the disk) — only the lookup is hoisted.
        transaction.record_read(key, item.version)
        return item.value

    def stage_write(self, transaction: Transaction, key: str,
                    value: object) -> None:
        """Record a deferred write (no simulated time, no physical I/O)."""
        if self.items.lookup(key) is None:
            raise UnknownItemError(key)
        transaction.record_write(key, value)

    def write_locked(self, transaction: Transaction, key: str, value: object):
        """Generator: 2PL write — exclusive lock, buffer write, deferred install.

        Used by the lazy technique, which executes its updates under local
        locking before commit.  The physical write is charged synchronously;
        the logical install still happens at commit time so that aborts need
        no undo.
        """
        if key not in self.items:
            raise UnknownItemError(key)
        grant = self.locks.acquire(transaction.txn_id, key, LockMode.EXCLUSIVE)
        yield grant
        obs = self.sim.obs
        span = None
        if obs is not None:
            span = obs.begin("db.write", category="disk",
                             track=f"server.{self.node.name}",
                             parent=("txn", transaction.txn_id),
                             labels={"key": key})
        try:
            yield from self.buffer.write_item_sync(key)
        finally:
            if span is not None:
                obs.end(span)
        transaction.record_write(key, value)

    # ---------------------------------------------------------------- certification
    def certify(self, payload: WriteSetMessage) -> bool:
        """Deterministic certification test of the database state machine.

        A transaction passes certification iff none of the items it read has
        been overwritten (its recorded version is still current).  Because all
        servers apply committed write sets in the same total order before
        certifying the next message, the outcome is identical everywhere —
        this is what makes the technique *non-voting*.
        """
        lookup = self.items.lookup
        for key, version in payload.read_versions.items():
            item = lookup(key)
            if item is None or item.version != version:
                return False
        return True

    def install_writes(self, payload: WriteSetMessage,
                       commit_order: Optional[int] = None) -> int:
        """Logically install a certified write set and bump item versions.

        Returns the commit order assigned on this copy.  The physical disk
        work is charged separately (:meth:`apply_physical_writes`), which is
        what lets the replication techniques choose between synchronous and
        asynchronous disk writes without affecting the logical state.
        """
        if commit_order is None:
            self.commit_counter += 1
            commit_order = self.commit_counter
        else:
            self.commit_counter = max(self.commit_counter, commit_order)
        items = self.items
        for key, value in payload.write_values.items():
            item = items.lookup(key)
            if item is None:
                item = items.create(key)
            item.install(value, payload.txn_id, commit_order)
        return commit_order

    def apply_physical_writes(self, keys: Iterable[str], synchronous: bool):
        """Generator: charge the disk/CPU cost of writing ``keys``.

        ``synchronous=True`` performs the buffer-pool write inside the caller
        (in-transaction, group-1-safe / lazy delegate); ``synchronous=False``
        only marks the items dirty for the write-behind flusher (group-safe).
        """
        for key in keys:
            if synchronous:
                yield from self.buffer.write_item_sync(key)
            else:
                self.buffer.write_item_async(key)

    # ------------------------------------------------------------------ logging
    def log_commit(self, transaction_or_payload, commit_order: Optional[int],
                   synchronous: bool):
        """Generator: append (and optionally flush) the commit record.

        Takes a :class:`Transaction` or a :class:`WriteSetMessage`; both
        carry ``txn_id`` and ``write_values`` (the record copies the latter).
        """
        self.wal.append_commit(transaction_or_payload.txn_id,
                               transaction_or_payload.write_values,
                               commit_order=commit_order)
        if synchronous:
            yield from self.wal.flush()

    # ------------------------------------------------------------------ finalisation
    def finalize_commit(self, transaction: Transaction,
                        commit_order: Optional[int] = None) -> None:
        """Mark ``transaction`` committed locally and release its locks."""
        transaction.commit_order = commit_order
        transaction.set_status(TransactionStatus.COMMITTED)
        transaction.decision_time = self.sim.now
        self.testable.record_commit(transaction.txn_id, commit_order)
        self.locks.release_all(transaction.txn_id)
        self.committed_count += 1

    def finalize_abort(self, transaction: Transaction, reason: str) -> None:
        """Mark ``transaction`` aborted locally and release its locks."""
        transaction.abort_reason = reason
        transaction.set_status(TransactionStatus.ABORTED)
        transaction.decision_time = self.sim.now
        self.testable.record_abort(transaction.txn_id, reason)
        self.locks.release_all(transaction.txn_id)
        self.aborted_count += 1
        if reason == "certification":
            self.certification_aborts += 1

    # ------------------------------------------------------------------ recovery
    def recover(self) -> int:
        """Rebuild the in-memory state from stable storage after a crash.

        The durable truth is the flushed write-ahead log: the item store is
        reset to its initial state and every durable commit record is redone
        in log order.  Returns the number of transactions redone.
        """
        redone = redo_from_log(self.items, self.wal.stable_records())
        self.commit_counter = max(
            [record.commit_order or 0 for record in self.wal.stable_records()] or [0])
        return redone

    # -- gray failures ------------------------------------------------------------
    def degrade_disk(self, factor: float) -> None:
        """Inflate this server's WAL flush times by ``factor`` (see
        :meth:`repro.db.wal.WriteAheadLog.degrade_disk`)."""
        self.wal.degrade_disk(factor)

    def restore_disk(self) -> None:
        """End a :meth:`degrade_disk` episode."""
        self.wal.restore_disk()

    # ------------------------------------------------------------------ crash hook
    def _on_node_event(self, node: Node, event: str) -> None:
        if event == "crash":
            self.wal.lose_volatile()
            self.buffer.lose_volatile()
            self.locks = LockManager(self.sim, name=f"{node.name}.locks")

    # ------------------------------------------------------------------ queries
    def value_of(self, key: str) -> object:
        """Current committed value of ``key`` (logical read, no timing).

        Like :meth:`version_of` a pure query: audits and migration scans call
        it for whole key ranges, so it must not materialise the item.
        """
        if key not in self.items:
            raise UnknownItemError(key)
        return self.items.committed(key).value

    def version_of(self, key: str) -> int:
        """Current committed version of ``key``."""
        if key not in self.items:
            raise UnknownItemError(key)
        return self.items.committed(key).version

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<LocalDatabase {self.node.name} items={len(self.items)} "
                f"committed={self.committed_count}>")
