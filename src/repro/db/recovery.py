"""Crash recovery of the local database: redo from the write-ahead log.

The durable state of a server is the flushed prefix of its write-ahead log.
Recovery therefore resets the in-memory item store (every touched item is
dropped back to its initial state) and *redoes* every durable commit record
in log-sequence order.  Redo is idempotent (the Thomas write rule in
:meth:`~repro.db.items.Item.install` skips out-of-date installs), so
repeating recovery — for instance because a server crashes again while
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
    """Reset ``items`` and redo every durable commit record.

    Returns the number of committed transactions that were redone.  Abort and
    checkpoint records are ignored (redo-only logging: nothing was installed
    before the commit record reached the log, so there is nothing to undo).
    """
    items.reset()
    redone = 0
    for record in records:
        if record.record_type is not LogRecordType.COMMIT:
            continue
        commit_order = record.commit_order if record.commit_order is not None \
            else redone + 1
        for key, value in record.payload.items():
            item = items.lookup(key)
            if item is None:
                item = items.create(key)
            item.install(value, record.txn_id, commit_order)
        redone += 1
    return redone
