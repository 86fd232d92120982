"""One-copy serialisability checking.

The correctness criterion of the replicated database (Sect. 2.1 of the paper)
is one-copy serialisability: the interleaved execution over all copies must be
equivalent to some serial execution over a single copy.  This module provides
an *offline* checker used by tests and by the experiment audit: it takes the
committed transactions (with the versions they read and the writes they
installed) and verifies that the version order induces an acyclic
serialisation graph, and that every read observed the value produced by the
preceding committed write in that order.

The checker is intentionally conservative and simple — it targets the
histories produced by the replication techniques in this library, where every
committed update transaction has a global commit order (the atomic broadcast
delivery order, or the delegate's local order for lazy replication).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass
class CommittedTransaction:
    """What the checker needs to know about one committed transaction."""

    txn_id: str
    commit_order: int
    read_versions: Dict[str, int] = field(default_factory=dict)
    write_keys: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.write_keys = tuple(self.write_keys)


@dataclass
class SerializabilityReport:
    """Outcome of a serialisability check."""

    serializable: bool
    anomalies: List[str] = field(default_factory=list)
    checked_transactions: int = 0

    def __bool__(self) -> bool:
        return self.serializable


def check_one_copy_serializability(
        transactions: Sequence[CommittedTransaction]) -> SerializabilityReport:
    """Check that the committed history is one-copy serialisable.

    The serial order hypothesised is the commit order.  Two kinds of anomalies
    are reported:

    * ``stale read`` — a transaction read a version of an item older than the
      version installed by the latest write that committed before it;
    * ``lost update`` — two transactions with the same commit order wrote the
      same item (the total order was not total after all).
    """
    anomalies: List[str] = []
    ordered = sorted(transactions, key=lambda txn: txn.commit_order)

    # Detect duplicated commit orders on overlapping write sets.
    by_order: Dict[int, List[CommittedTransaction]] = {}
    for txn in ordered:
        by_order.setdefault(txn.commit_order, []).append(txn)
    for order, group in by_order.items():
        if len(group) < 2:
            continue
        seen: Dict[str, str] = {}
        for txn in group:
            for key in txn.write_keys:
                if key in seen:
                    anomalies.append(
                        f"lost update: {seen[key]} and {txn.txn_id} both wrote "
                        f"{key} at commit order {order}")
                seen[key] = txn.txn_id

    # Replay the serial order and validate each read.
    current_version: Dict[str, int] = {}
    for txn in ordered:
        for key, version_read in txn.read_versions.items():
            installed = current_version.get(key, 0)
            if version_read < installed:
                anomalies.append(
                    f"stale read: {txn.txn_id} read {key} at version "
                    f"{version_read} but version {installed} had committed before it")
        for key in txn.write_keys:
            current_version[key] = current_version.get(key, 0) + 1

    return SerializabilityReport(serializable=not anomalies,
                                 anomalies=anomalies,
                                 checked_transactions=len(ordered))
