"""Transaction operations and transaction *programs*.

A transaction, as generated by the workload of Table 4, is a sequence of 10
to 20 operations, each of which reads or writes one item (half of the
operations are queries, half are updates).  The :class:`TransactionProgram`
is the static description of such a sequence — what the client submits to its
delegate server — while :class:`~repro.db.transaction.Transaction` is the
runtime object a server creates to execute it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Mapping, Tuple

_program_ids = itertools.count(1)


class OperationType(Enum):
    """The two operation kinds of the paper's workload model."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True, slots=True)
class Operation:
    """One read or write of a single item."""

    op_type: OperationType
    key: str
    value: object = None

    @property
    def is_read(self) -> bool:
        """True for query operations."""
        return self.op_type is OperationType.READ

    @property
    def is_write(self) -> bool:
        """True for update operations."""
        return self.op_type is OperationType.WRITE

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        tag = "r" if self.is_read else "w"
        return f"{tag}[{self.key}]"


def read(key: str) -> Operation:
    """Convenience constructor for a read operation."""
    return Operation(OperationType.READ, key)


def write(key: str, value: object = None) -> Operation:
    """Convenience constructor for a write operation."""
    return Operation(OperationType.WRITE, key, value)


@dataclass
class TransactionProgram:
    """The static description of a transaction submitted by a client.

    Attributes
    ----------
    operations:
        The ordered sequence of reads and writes.
    program_id:
        A unique identifier; the replicated database uses it to build the
        globally unique transaction identifier and the *testable transaction*
        bookkeeping (exactly-once commit after message replay).
    client:
        Name of the submitting client, purely informational.
    """

    operations: Tuple[Operation, ...]
    program_id: int = field(default_factory=lambda: next(_program_ids))
    client: str = "client"

    def __post_init__(self) -> None:
        self.operations = tuple(self.operations)
        if not self.operations:
            raise ValueError("a transaction program needs at least one operation")

    @classmethod
    def of_writes(cls, values: Mapping[str, object],
                  client: str = "client") -> "TransactionProgram":
        """The write-only program installing ``values`` (one write per key)."""
        return cls(operations=tuple(write(key, value)
                                    for key, value in values.items()),
                   client=client)

    # -- structural queries -------------------------------------------------
    @property
    def write_keys(self) -> List[str]:
        """Keys written by the program, in operation order, without duplicates."""
        return _unique(op.key for op in self.operations if op.is_write)

    @property
    def length(self) -> int:
        """Number of operations in the program."""
        return len(self.operations)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"TransactionProgram(#{self.program_id} "
                f"{self.length} ops, {len(self.write_keys)} writes)")


def _unique(keys: Iterable[str]) -> List[str]:
    """Preserve order while removing duplicates."""
    seen = set()
    ordered: List[str] = []
    for key in keys:
        if key not in seen:
            seen.add(key)
            ordered.append(key)
    return ordered
