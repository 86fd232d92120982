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
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


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


# repro: allow(unused-surface): only its own test uses it; ROADMAP 7(b)
def precedence_graph(transactions: Sequence[CommittedTransaction]
                     ) -> Dict[str, Set[str]]:
    """Build the write-read / write-write precedence graph of the history.

    Edges point from the earlier transaction to the later one; a cycle in this
    graph would mean the history is not serialisable in commit order.  Exposed
    mostly for tests and for the scaling experiment's inconsistency analysis.
    """
    graph: Dict[str, Set[str]] = {txn.txn_id: set() for txn in transactions}
    ordered = sorted(transactions, key=lambda txn: txn.commit_order)
    last_writer: Dict[str, str] = {}
    for txn in ordered:
        for key, _version in txn.read_versions.items():
            writer = last_writer.get(key)
            if writer and writer != txn.txn_id:
                graph[writer].add(txn.txn_id)
        for key in txn.write_keys:
            writer = last_writer.get(key)
            if writer and writer != txn.txn_id:
                graph[writer].add(txn.txn_id)
            last_writer[key] = txn.txn_id
    return graph


# repro: allow(unused-surface): only its own test uses it; ROADMAP 7(b)
def has_cycle(graph: Dict[str, Set[str]]) -> bool:
    """True if the directed ``graph`` contains a cycle (DFS three-colour)."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in graph}

    def visit(node: str) -> bool:
        colour[node] = GREY
        for successor in graph.get(node, ()):
            if colour.get(successor, WHITE) == GREY:
                return True
            if colour.get(successor, WHITE) == WHITE and visit(successor):
                return True
        colour[node] = BLACK
        return False

    return any(colour[node] == WHITE and visit(node) for node in list(graph))
