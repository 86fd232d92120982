"""The local database component (Sect. 2.2 of the paper).

Each server of the replicated database hosts one :class:`LocalDatabase`, which
bundles the logical item store, strict two-phase locking, the write-ahead log,
the buffer pool / disk-timing model and the testable-transaction registry.
The replication techniques of :mod:`repro.replication` are built on top of
this component and of the group-communication component
(:mod:`repro.gcs`).
"""

from .buffer import BufferPool
from .engine import LocalDatabase
from .errors import (DatabaseError, DeadlockError, InvalidTransactionState,
                     LockError, TransactionAborted, UnknownItemError)
from .items import Item, ItemStore, ItemVersion
from .locks import LockManager, LockMode
from .operations import (Operation, OperationType, TransactionProgram, read,
                         write)
from .recovery import redo_from_log
from .serializability import (CommittedTransaction, SerializabilityReport,
                              check_one_copy_serializability, has_cycle,
                              precedence_graph)
from .stable_storage import StableLog, StableStorage
from .testable import TestableTransactionRegistry
from .transaction import Transaction, TransactionStatus, WriteSetMessage
from .wal import LogRecord, LogRecordType, WriteAheadLog

__all__ = [
    "LocalDatabase",
    "BufferPool",
    "ItemStore",
    "Item",
    "ItemVersion",
    "LockManager",
    "LockMode",
    "Operation",
    "OperationType",
    "TransactionProgram",
    "read",
    "write",
    "Transaction",
    "TransactionStatus",
    "WriteSetMessage",
    "WriteAheadLog",
    "LogRecord",
    "LogRecordType",
    "StableStorage",
    "StableLog",
    "TestableTransactionRegistry",
    "redo_from_log",
    "CommittedTransaction",
    "SerializabilityReport",
    "check_one_copy_serializability",
    "precedence_graph",
    "has_cycle",
    "DatabaseError",
    "TransactionAborted",
    "DeadlockError",
    "LockError",
    "UnknownItemError",
    "InvalidTransactionState",
]
