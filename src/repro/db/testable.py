"""Testable transactions: exactly-once commits across message replays.

Section 2.2 of the paper assumes that the local database "has a mechanism to
detect and handle transactions that are submitted multiple times, e.g.,
testable transactions".  The mechanism matters for the end-to-end atomic
broadcast of Sect. 4: after a crash the group-communication component replays
every message whose processing was not acknowledged, so the same transaction
may be handed to the database twice; the registry below guarantees that it is
*committed* at most once while still letting the replay be acknowledged.

The registry lives on stable storage (it records the *outcome* of a
transaction, which is exactly what must survive a crash for the test to be
meaningful).
"""

from __future__ import annotations

from typing import List, Optional

from ..network.node import Node
from .stable_storage import StableStorage


class TestableTransactionRegistry:
    """Crash-surviving record of transaction outcomes on one server."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, node: Node, name: str = "testable") -> None:
        self.node = node
        self._outcomes: StableStorage = node.register_stable(
            f"{name}.outcomes", StableStorage(f"{node.name}.{name}"))
        #: Number of duplicate submissions detected (statistics / tests).
        self.duplicates_detected = 0

    def record_commit(self, txn_id: str, commit_order: Optional[int] = None) -> None:
        """Durably record that ``txn_id`` committed."""
        self._outcomes.put(txn_id, {"outcome": "commit",
                                    "commit_order": commit_order})

    def record_abort(self, txn_id: str, reason: str = "aborted") -> None:
        """Durably record that ``txn_id`` aborted."""
        self._outcomes.put(txn_id, {"outcome": "abort", "reason": reason})

    def outcome(self, txn_id: str) -> Optional[str]:
        """Return ``"commit"``, ``"abort"`` or ``None`` if never decided here."""
        entry = self._outcomes.get(txn_id)
        return entry["outcome"] if entry else None

    def has_committed(self, txn_id: str) -> bool:
        """True if this server already committed ``txn_id``."""
        return self.outcome(txn_id) == "commit"

    def has_decided(self, txn_id: str) -> bool:
        """True if this server already decided (commit or abort) ``txn_id``."""
        return self.outcome(txn_id) is not None

    def check_duplicate(self, txn_id: str) -> bool:
        """Return True (and count it) if ``txn_id`` was already decided."""
        if self.has_decided(txn_id):
            self.duplicates_detected += 1
            return True
        return False

    def committed_ids(self) -> List[str]:
        """All committed transaction ids on this server, in sorted order."""
        return [txn_id for txn_id in sorted(self._outcomes.keys())
                if self.has_committed(txn_id)]
