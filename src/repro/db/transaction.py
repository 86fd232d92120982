"""Runtime transaction objects.

A :class:`Transaction` is the server-side incarnation of a
:class:`~repro.db.operations.TransactionProgram`: it records what was read
(and at which version), what is to be written, and moves through the usual
lifecycle ``ACTIVE -> (BROADCAST ->) COMMITTED | ABORTED``.

The read-set with versions plus the write-set is exactly the information the
database state machine broadcasts and certifies (Sect. 2.1 of the paper); the
object is therefore also the payload carried by the atomic broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from .errors import InvalidTransactionState
from .operations import TransactionProgram


class TransactionStatus(Enum):
    """Lifecycle states of a transaction replica-side."""

    ACTIVE = "active"
    BROADCAST = "broadcast"       # sent to the group, waiting for delivery
    COMMITTED = "committed"
    ABORTED = "aborted"


#: State transitions allowed by :meth:`Transaction.set_status`.
_ALLOWED_TRANSITIONS = {
    TransactionStatus.ACTIVE: {TransactionStatus.BROADCAST,
                               TransactionStatus.COMMITTED,
                               TransactionStatus.ABORTED},
    TransactionStatus.BROADCAST: {TransactionStatus.COMMITTED,
                                  TransactionStatus.ABORTED},
    TransactionStatus.COMMITTED: set(),
    TransactionStatus.ABORTED: set(),
}


@dataclass
class Transaction:
    """A transaction being executed on behalf of a client.

    Attributes
    ----------
    txn_id:
        Globally unique identifier (``"<delegate>:<program id>"`` by
        convention), used by the testable-transaction mechanism to guarantee
        exactly-once commits across message replays.
    program:
        The static operation list submitted by the client.
    delegate:
        Name of the server acting as delegate for this transaction.
    read_versions:
        Mapping item key -> version observed during the read phase; input to
        the certification test.
    write_values:
        Mapping item key -> value to install on commit (deferred updates).
    """

    txn_id: str
    program: TransactionProgram
    delegate: str
    status: TransactionStatus = TransactionStatus.ACTIVE
    read_versions: Dict[str, int] = field(default_factory=dict)
    write_values: Dict[str, object] = field(default_factory=dict)
    start_time: Optional[float] = None
    broadcast_time: Optional[float] = None
    decision_time: Optional[float] = None
    response_time: Optional[float] = None
    commit_order: Optional[int] = None
    abort_reason: Optional[str] = None

    # -- read / write bookkeeping ------------------------------------------------
    def record_read(self, key: str, version: int) -> None:
        """Record that the read phase observed ``key`` at ``version``."""
        if key not in self.read_versions:
            self.read_versions[key] = version

    def record_write(self, key: str, value: object) -> None:
        """Record a deferred write of ``value`` to ``key``."""
        self.write_values[key] = value

    @property
    def write_set(self) -> List[str]:
        """Keys written, in first-write order."""
        return list(self.write_values)

    # -- lifecycle --------------------------------------------------------------
    def set_status(self, status: TransactionStatus) -> None:
        """Move the transaction to ``status``, validating the transition."""
        if status is self.status:
            return
        if status not in _ALLOWED_TRANSITIONS[self.status]:
            raise InvalidTransactionState(
                f"{self.txn_id}: illegal transition {self.status.value} -> "
                f"{status.value}")
        self.status = status

    @property
    def committed(self) -> bool:
        """True if the transaction reached ``COMMITTED``."""
        return self.status is TransactionStatus.COMMITTED

    @property
    def aborted(self) -> bool:
        """True if the transaction reached ``ABORTED``."""
        return self.status is TransactionStatus.ABORTED

    # -- certification payload -----------------------------------------------------
    def certification_payload(self) -> "WriteSetMessage":
        """Build the message payload broadcast to the group."""
        return WriteSetMessage(txn_id=self.txn_id, delegate=self.delegate,
                               read_versions=dict(self.read_versions),
                               write_values=dict(self.write_values),
                               program_id=self.program.program_id,
                               client=self.program.client)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Transaction {self.txn_id} {self.status.value}>"


@dataclass(frozen=True)
class WriteSetMessage:
    """The read-versions + write-set payload carried by the atomic broadcast.

    This is what every server certifies and applies in delivery order.  It is
    immutable because the same payload object is shared by all simulated
    servers (the simulated network does not deep-copy messages).
    """

    txn_id: str
    delegate: str
    read_versions: Dict[str, int]
    write_values: Dict[str, object]
    program_id: int
    client: str = "client"

    @property
    def write_set(self) -> List[str]:
        """Keys written by the transaction."""
        return list(self.write_values)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"WriteSetMessage({self.txn_id} reads={len(self.read_versions)} "
                f"writes={len(self.write_values)})")
