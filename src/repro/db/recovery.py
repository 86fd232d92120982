"""Crash recovery of the local database: redo from the write-ahead log.

The durable state of a server is the flushed prefix of its write-ahead log.
Recovery therefore resets the in-memory item store (every touched item is
dropped back to its initial state) and *redoes* every durable commit record
in commit order, not log order: the lazy technique's remote apply appends
its records after its page writes, so they reach the log out of commit
order, and an item's version counts its installs, so an older commit redone
after a newer one on the same item (the Thomas write rule in
:meth:`~repro.db.items.Item.install` skips it) would leave the item a
version short of its peers'.  Every database state machine level appends
its COMMIT record at the decision, in delivery order.  Redo is idempotent,
so repeating recovery — for instance because a server crashes again while
recovering — is harmless.

The checkpoint-based alternative used by the *state-transfer* recovery of
classical group communication (Sect. 2.3 of the paper) replaces the local
state wholesale with a snapshot taken on another replica:
:func:`repro.replication.dbsm.install_checkpoint`, over
:meth:`ItemStore.restore <repro.db.items.ItemStore.restore>`.
"""

from __future__ import annotations

from typing import Iterable

from .items import ItemStore
from .wal import LogRecord, LogRecordType


def redo_from_log(items: ItemStore, records: Iterable[LogRecord]) -> int:
    """Reset ``items`` and redo every durable commit record, in commit order.

    Returns the number of committed transactions that were redone.  Abort and
    checkpoint records are ignored (redo-only logging: nothing was installed
    before the commit record reached the log, so there is nothing to undo).
    A record without a commit order takes its position among the commit
    records.
    """
    items.reset()
    commits = [record for record in records
               if record.record_type is LogRecordType.COMMIT]
    orders = [record.commit_order if record.commit_order is not None
              else position for position, record in enumerate(commits, 1)]
    for commit_order, record in sorted(zip(orders, commits),
                                       key=lambda pair: pair[0]):
        for key, value in record.payload.items():
            item = items.lookup(key)
            if item is None:
                item = items.create(key)
            item.install(value, record.txn_id, commit_order)
    return len(commits)
