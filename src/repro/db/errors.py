"""Exception hierarchy of the local database component."""

from __future__ import annotations


class DatabaseError(Exception):
    """Base class for all errors raised by the database component."""


class UnknownItemError(DatabaseError, KeyError):
    """Raised when an operation references an item that does not exist."""


class DeadlockError(DatabaseError):
    """Raised when a transaction is chosen as the victim of a deadlock.

    The ``reason`` attribute is the abort reason the transaction is
    finalised with.
    """

    def __init__(self, transaction_id: str) -> None:
        super().__init__(f"transaction {transaction_id} aborted: deadlock")
        self.reason = "deadlock"


class InvalidTransactionState(DatabaseError):
    """Raised when a transaction is driven through an illegal state change."""
