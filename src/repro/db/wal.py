"""Write-ahead logging.

The write-ahead log is the bridge between a transaction commit and stable
storage.  The safety criteria of the paper are phrased in terms of whether a
transaction "has been logged and will eventually commit": for this library a
transaction counts as *logged on a server* exactly when its commit record has
been **flushed** by that server's :class:`WriteAheadLog`.

The log separates the *logical* append (free, volatile tail) from the
*physical* flush (a disk write of 4–12 ms per Table 4).  The replication
techniques differ only in *when* they flush:

* group-1-safe, 2-safe and lazy flush synchronously before answering the
  client (on the delegate);
* group-safe flushes asynchronously, outside the transaction boundary — that
  asynchrony is the entire performance argument of the paper's Sect. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..network.node import Node
from ..sim.engine import Simulator
from ..sim.resources import Gate
from .stable_storage import StableLog


class LogRecordType(Enum):
    """Kinds of records a server writes to its WAL."""

    UPDATE = "update"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"
    #: Atomic-commit decision of a cross-partition coordinator.  Not a
    #: transaction commit: recovery redo, the safety audit and
    #: ``committed_transactions()`` all ignore it.
    DECISION = "decision"
    #: Ownership-map version record of the epoch-versioned routing table.
    #: Force-logged before a shard migration installs the new map, so a
    #: restarted cluster recovers a consistent ownership map.  Like DECISION
    #: it is not a transaction commit and is ignored by redo and the audit.
    EPOCH = "epoch"


@dataclass
class LogRecord:
    """One write-ahead log record."""

    record_type: LogRecordType
    txn_id: str
    payload: Dict[str, object] = field(default_factory=dict)
    commit_order: Optional[int] = None
    lsn: Optional[int] = None

    @classmethod
    def decision(cls, txn_id: str) -> "LogRecord":
        """A cross-partition coordinator's decision record for ``txn_id``."""
        return cls(LogRecordType.DECISION, txn_id)

    @classmethod
    def epoch(cls, epoch: int, payload: Dict[str, object]) -> "LogRecord":
        """A routing-table epoch record (serialised ownership map)."""
        return cls(LogRecordType.EPOCH, f"epoch-{epoch}", payload=dict(payload))


class WriteAheadLog:
    """Per-server write-ahead log with explicit flush timing.

    Records are appended to a volatile tail; :meth:`flush` moves the tail to
    the crash-surviving :class:`~repro.db.stable_storage.StableLog` while
    occupying one of the server's disks for a Table 4 write time.  Only
    flushed records survive a crash.
    """

    def __init__(self, sim: Simulator, node: Node,
                 write_time_low: float = 4.0, write_time_high: float = 12.0,
                 name: str = "wal") -> None:
        self.sim = sim
        self.node = node
        self.name = name
        self.write_time_low = write_time_low
        self.write_time_high = write_time_high
        self._log_write_stream = sim.random.stream(f"{node.name}.log_write")
        self._volatile: List[LogRecord] = []
        self._stable: StableLog = node.register_stable(
            f"{name}.stable", StableLog(f"{node.name}.{name}"))
        self._next_lsn = len(self._stable)
        self._flush_gates: Dict[str, Gate] = {}
        #: Gray-failure knob: multiplier on the physical flush time
        #: (:meth:`degrade_disk`).  Applied *after* the random draw, so the
        #: ``{node}.log_write`` stream consumption — and therefore every
        #: other stream — is unchanged by a degradation.
        self._disk_factor = 1.0
        #: Number of physical flush operations performed (for statistics).
        self.flush_count = 0

    # -- append ----------------------------------------------------------------
    def append(self, record: LogRecord) -> LogRecord:
        """Append ``record`` to the volatile tail and assign its LSN."""
        record.lsn = self._next_lsn
        self._next_lsn += 1
        self._volatile.append(record)
        return record

    def append_commit(self, txn_id: str, write_values: Dict[str, object],
                      commit_order: Optional[int] = None) -> LogRecord:
        """Append the commit record (with after-images) of ``txn_id``."""
        return self.append(LogRecord(LogRecordType.COMMIT, txn_id,
                                     payload=dict(write_values),
                                     commit_order=commit_order))

    def append_abort(self, txn_id: str) -> LogRecord:
        """Append an abort record for ``txn_id``."""
        return self.append(LogRecord(LogRecordType.ABORT, txn_id))

    # -- gray failures ----------------------------------------------------------
    def degrade_disk(self, factor: float) -> None:
        """Inflate every subsequent flush time by ``factor`` (a failing but
        not failed disk — the gray-failure mode of the netsplit matrix)."""
        if factor < 1.0:
            raise ValueError("a degradation factor must be >= 1")
        self._disk_factor = factor

    def restore_disk(self) -> None:
        """End a :meth:`degrade_disk` episode."""
        self._disk_factor = 1.0

    # -- flush ------------------------------------------------------------------
    def _flush_duration(self) -> float:
        duration = self._log_write_stream.uniform(self.write_time_low,
                                                  self.write_time_high)
        if self._disk_factor != 1.0:
            duration *= self._disk_factor
        return duration

    def flush(self):
        """Generator: force the volatile tail to stable storage.

        Occupies one disk of the node for one write time; every record that
        was in the tail when the flush started (plus any appended while the
        flush waited for the disk — group commit) becomes durable.
        """
        if not self._volatile:
            return
        node = self.node
        obs = self.sim.obs
        span = None
        if obs is not None:
            # Parentless on purpose: one group-commit flush serves many
            # transactions; their own spans cover the wait via flush gates.
            span = obs.begin("wal.flush", category="disk",
                             track=f"server.{node.name}",
                             labels={"records": len(self._volatile)})
        try:
            yield node.cpu.use(node.cpu_time_per_io)
            yield node.disk.use(self._flush_duration())
        finally:
            if span is not None:
                obs.end(span)
        self.flush_count += 1
        flushed, self._volatile = self._volatile, []
        for record in flushed:
            self._stable.append(record)
            gate = self._flush_gates.pop(record.txn_id, None)
            if gate is not None:
                gate.open()

    def force(self, record: LogRecord):
        """Generator: append ``record``, flush, report whether it is durable.

        The forced-write discipline of the 2PC decision and routing-epoch
        records: success is judged by *evidence* — the record must actually
        be on stable storage afterwards — so a crash mid-flush (the
        volatile tail dies with the node) reads as failure, never as a
        phantom forced write.  A crashed node appends nothing and returns
        False: a record left in its volatile tail would survive recovery
        and could later flush as a phantom record.
        """
        if self.node.is_crashed:
            return False
        self.append(record)
        try:
            yield from self.flush()
        except Exception:
            # The node crashed mid-flush with the request in service.
            return False
        return self.is_stable(record)

    def flushed_gate(self, txn_id: str) -> Gate:
        """Return a gate that opens once ``txn_id``'s records are durable."""
        if self.is_logged(txn_id):
            return Gate(self.sim, opened=True, name=f"flushed:{txn_id}")
        gate = self._flush_gates.setdefault(
            txn_id, Gate(self.sim, name=f"flushed:{txn_id}"))
        return gate

    # -- queries ------------------------------------------------------------------
    def is_stable(self, record: LogRecord) -> bool:
        """True if ``record`` (an object this log appended) is on stable storage.

        Records reach the stable log in LSN order, so the record's LSN can
        be bisected in O(log n) instead of scanning (and copying) the whole
        stable log — this runs once per forced 2PC decision.  The final
        identity comparison distinguishes the record itself from a
        same-LSN successor appended after a crash dropped the original with
        the volatile tail.
        """
        if record.lsn is None:
            return False
        low, high = 0, len(self._stable)
        while low < high:
            mid = (low + high) // 2
            if self._stable.entries(mid, mid + 1)[0].lsn < record.lsn:
                low = mid + 1
            else:
                high = mid
        if low >= len(self._stable):
            return False
        return self._stable.entries(low, low + 1)[0] is record

    def is_logged(self, txn_id: str) -> bool:
        """True if a COMMIT record of ``txn_id`` has reached stable storage."""
        return any(record.record_type is LogRecordType.COMMIT and
                   record.txn_id == txn_id for record in self._stable)

    def stable_records(self) -> List[LogRecord]:
        """All records currently on stable storage."""
        return list(self._stable)

    def volatile_records(self) -> List[LogRecord]:
        """Records appended but not yet flushed (lost on crash)."""
        return list(self._volatile)

    def committed_transactions(self) -> List[str]:
        """Transaction ids with a durable COMMIT record, in LSN order."""
        return [record.txn_id for record in self._stable
                if record.record_type is LogRecordType.COMMIT]

    # -- crash handling ---------------------------------------------------------------
    def lose_volatile(self) -> None:
        """Drop the volatile tail (called when the hosting node crashes)."""
        self._volatile.clear()
        self._flush_gates.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<WriteAheadLog {self.node.name} stable={len(self._stable)} "
                f"volatile={len(self._volatile)}>")
