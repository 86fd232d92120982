"""Exception hierarchy of the local database component."""

from __future__ import annotations


class DatabaseError(Exception):
    """Base class for all errors raised by the database component."""


class UnknownItemError(DatabaseError, KeyError):
    """Raised when an operation references an item that does not exist."""


class TransactionAborted(DatabaseError):
    """Raised (or recorded) when a transaction cannot commit.

    The ``reason`` attribute carries a short machine-readable tag such as
    ``"certification"``, ``"deadlock"`` or ``"crash"``.
    """

    def __init__(self, transaction_id: str, reason: str = "aborted") -> None:
        super().__init__(f"transaction {transaction_id} aborted: {reason}")
        self.reason = reason


class DeadlockError(TransactionAborted):
    """Raised when a transaction is chosen as the victim of a deadlock."""

    def __init__(self, transaction_id: str) -> None:
        super().__init__(transaction_id, reason="deadlock")


class LockError(DatabaseError):
    """Raised on improper use of the lock manager (double release, etc.)."""


class InvalidTransactionState(DatabaseError):
    """Raised when a transaction is driven through an illegal state change."""
