"""State transfer: checkpoint-based recovery of the dynamic model.

In the dynamic crash no-recovery model a recovering process rejoins the group
under a new identity and receives a *checkpoint* of the application state from
a current member (Sect. 2.3 of the paper).  The group-communication endpoint
only moves opaque checkpoints around; this module defines the small container
the replication techniques use for those checkpoints, so that what is (and is
not) captured by a state transfer is explicit: the database items, the set of
committed transactions, and the commit counter — but **not** the messages
that were delivered and not yet processed, which is why checkpoint-based
recovery loses the Fig. 5 transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..db.engine import LocalDatabase
from ..db.items import ItemVersion


@dataclass
class ApplicationCheckpoint:
    """A transferable snapshot of one replica's database state."""

    items: Dict[str, ItemVersion] = field(default_factory=dict)
    committed_transactions: List[str] = field(default_factory=list)
    commit_counter: int = 0
    taken_at: float = 0.0
    source: str = ""


def take_checkpoint(database: LocalDatabase, at_time: float,
                    source: str = "") -> ApplicationCheckpoint:
    """Capture the current committed state of ``database``."""
    return ApplicationCheckpoint(
        items=database.items.snapshot(),
        committed_transactions=list(database.testable.committed_ids()),
        commit_counter=database.commit_counter,
        taken_at=at_time,
        source=source or database.node.name)


def install_checkpoint(database: LocalDatabase,
                       checkpoint: ApplicationCheckpoint) -> None:
    """Replace ``database``'s state with the transferred ``checkpoint``.

    The item snapshot is sparse and :meth:`ItemStore.restore` replaces the
    store wholesale: an item the checkpoint does not mention ends at version
    0, whatever the rejoining replica had installed locally.  The
    testable-transaction registry is updated so the receiving replica
    knows which transactions are already reflected in the installed state and
    will not commit them a second time.
    """
    database.items.restore(checkpoint.items)
    database.commit_counter = checkpoint.commit_counter
    for txn_id in checkpoint.committed_transactions:
        database.testable.record_commit(txn_id)
