"""Execution audit: which safety guarantees did a run actually provide?

The audit has two halves:

* :func:`classify_results` looks at every client notification a run produced
  and classifies the guarantee that held at that moment (using the flags the
  replica servers record on each
  :class:`~repro.replication.results.TransactionResult`); the outcome is the
  *claimed* safety level of the run.
* :class:`SafetyAudit` confronts that claim with what actually happened:
  after the failure pattern of a scenario, were any confirmed transactions
  lost?  Was the replicated state mutually consistent?
* :func:`audit_writes` is the one per-key commit-integrity audit: given the
  replica groups, the confirmed writes and who owns each key now, it returns
  typed :class:`Finding` records (lost / duplicated / unserved / diverged).
  :meth:`SafetyAudit.report`, the rebalance audit and every failure matrix
  are callers of it, so "lost" means the same thing everywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Collection, Dict, Iterable, List,
                    Mapping, Optional, Sequence, Union)

from ..db.serializability import (CommittedTransaction,
                                  check_one_copy_serializability)
from .durability import transaction_fate
from .safety import SafetyLevel, classify_notification

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..replication.cluster import ReplicatedDatabaseCluster
    from ..replication.results import TransactionResult


def classify_result(result: "TransactionResult") -> SafetyLevel:
    """Safety level that held when this particular client was notified."""
    return classify_notification(delivered_to_group=result.delivered_to_group,
                                 logged_on_delegate=result.logged_on_delegate,
                                 logged_on_all=result.logged_on_all)


def classify_results(results: Sequence["TransactionResult"]
                     ) -> Dict[SafetyLevel, int]:
    """Histogram of notification-time guarantees over a set of results."""
    histogram: Dict[SafetyLevel, int] = {}
    for result in results:
        if not result.committed:
            continue
        level = classify_result(result)
        histogram[level] = histogram.get(level, 0) + 1
    return histogram


def weakest_guarantee(results: Sequence["TransactionResult"]
                      ) -> Optional[SafetyLevel]:
    """The weakest notification-time guarantee observed (None if no commits)."""
    levels = [classify_result(result) for result in results if result.committed]
    if not levels:
        return None
    return min(levels, key=lambda level: level.rank)


class FindingKind(enum.Enum):
    """What the commit-integrity audit can hold against a confirmed write."""

    #: Gone from every surviving server of the group that must serve it.
    LOST = "lost commit"
    #: One transaction id recorded as committed on more than one group.
    DUPLICATED = "duplicated commit"
    #: Not lost, replicas agree, yet a caught-up server does not serve it.
    UNSERVED = "unserved commit"
    #: Caught-up replicas serve different values for a confirmed key.
    DIVERGED = "diverged replicas"


@dataclass(frozen=True)
class ConfirmedWrite:
    """One client-confirmed update: the evidence unit of :func:`audit_writes`."""

    txn_id: str
    #: Index of the group that committed (and confirmed) it.
    group: int = 0
    #: The written values.  Empty audits the transaction only — for loaded
    #: runs, where later writers legitimately overwrite the keys.
    values: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Finding:
    """One typed violation of commit integrity."""

    kind: FindingKind
    txn_id: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.txn_id} {self.detail}"


def divergent_keys(group: "ReplicatedDatabaseCluster",
                   servers: Sequence[str], keys: Iterable[str]) -> List[str]:
    """The ``keys`` on which ``servers`` of ``group`` serve different values."""
    return [key for key in keys
            if len({repr(group.database(name).value_of(key))
                    for name in servers}) > 1]


def _serves(group: "ReplicatedDatabaseCluster", name: str,
            write: ConfirmedWrite) -> bool:
    """Does server ``name`` serve ``write``: every written value, or (for a
    write without values) the transaction's commit record?"""
    database = group.database(name)
    if not write.values:
        return database.testable.has_committed(write.txn_id)
    return all(database.value_of(key) == value
               for key, value in write.values.items())


def audit_writes(groups: Union["ReplicatedDatabaseCluster",
                               Sequence["ReplicatedDatabaseCluster"]],
                 writes: Iterable[ConfirmedWrite],
                 owner_of: Optional[Callable[[str], int]] = None,
                 caught_up: Optional[Collection[str]] = None
                 ) -> List[Finding]:
    """Per-key commit-integrity audit of confirmed writes.

    ``groups`` are the replica groups (a single cluster is the one-group
    case) and ``owner_of(key)`` the index of the group owning ``key`` *now*;
    without it every write is still owned by the group that committed it.
    For every write:

    * **duplicated** — its transaction is recorded as committed on more than
      one group;
    * **lost** — the owning group is the one that confirmed it and the
      transaction's :func:`~repro.core.durability.transaction_fate` is lost
      (no surviving server has, or will regain, it); or ownership moved (a
      migration completed) and no surviving server of the new owner serves
      the written values;
    * **diverged** / **unserved** — only when ``caught_up`` names the servers
      expected to have caught up (crash patterns legitimately leave replicas
      behind, lazy replication diverges by design): those servers of the
      owning group disagree on a written key, or agree and still do not all
      serve the write.
    """
    if not isinstance(groups, (list, tuple)):
        groups = [groups]
    findings: List[Finding] = []

    def hold(kind: FindingKind, write: ConfirmedWrite, detail: str) -> None:
        findings.append(Finding(kind, write.txn_id, detail))

    for write in writes:
        recorded = {index: group.committed_anywhere(write.txn_id)
                    for index, group in enumerate(groups)}
        on_groups = [index for index, names in recorded.items() if names]
        if len(on_groups) > 1:
            hold(FindingKind.DUPLICATED, write,
                 f"is recorded on groups {on_groups}")
        owner = write.group if owner_of is None or not write.values \
            else owner_of(next(iter(write.values)))
        group = groups[owner]
        surviving = group.up_servers()
        if owner != write.group:
            if not any(_serves(group, name, write) for name in surviving):
                hold(FindingKind.LOST, write, f"moved to group {owner} but "
                                              f"its values are not served there")
                continue
        # A surviving server that committed it settles the question; only
        # otherwise is the full (log- and queue-scanning) fate collected.
        elif (not set(recorded[owner]).intersection(surviving)
              and transaction_fate(group, write.txn_id).is_lost):
            hold(FindingKind.LOST, write, f"is gone from every surviving "
                                          f"server of its owning group {owner}")
            continue
        if caught_up is not None:
            servers = [name for name in group.server_names()
                       if name in caught_up]
            disputed = divergent_keys(group, servers, write.values)
            behind = [name for name in servers
                      if not _serves(group, name, write)]
            if disputed:
                hold(FindingKind.DIVERGED, write,
                     f"{servers} disagree on {disputed}")
            elif behind:
                hold(FindingKind.UNSERVED, write,
                     f"is not served on {behind}")
    return findings


@dataclass
class AuditReport:
    """Outcome of a full safety audit of one scenario run."""

    technique: str
    confirmed_transactions: int
    lost_transactions: List[str] = field(default_factory=list)
    guarantee_histogram: Dict[SafetyLevel, int] = field(default_factory=dict)
    divergent_items: List[str] = field(default_factory=list)
    serializable: bool = True

    @property
    def transaction_lost(self) -> bool:
        """True if at least one confirmed transaction was lost."""
        return bool(self.lost_transactions)

    @property
    def consistent(self) -> bool:
        """True if all up servers agree on the committed values."""
        return not self.divergent_items


class SafetyAudit:
    """Confronts a cluster's state with the confirmations it handed out."""

    def __init__(self, cluster: "ReplicatedDatabaseCluster") -> None:
        self.cluster = cluster

    # -- individual checks ------------------------------------------------------------
    def divergent_items(self, servers: Optional[Sequence[str]] = None
                        ) -> List[str]:
        """Item keys on which up servers currently disagree.

        Lazy replication may diverge even without failures (Sect. 7); the
        group-based techniques should never diverge while the group holds.
        Items whose pending updates are still being propagated/processed are
        *not* excluded — call this only once the run has quiesced.
        """
        names = list(servers) if servers is not None \
            else self.cluster.up_servers()
        if len(names) < 2:
            return []
        return divergent_keys(self.cluster, names,
                              self.cluster.database(names[0]).items.keys())

    def serializability(self, servers: Optional[Sequence[str]] = None) -> bool:
        """Check one-copy serialisability of the committed history.

        The history is reconstructed from the write-ahead logs (commit order
        and write sets) of the given servers; read versions are not persisted
        in the log, so this check targets the write/write part of the
        serialisation order (the read part is checked live by the
        certification tests in the test-suite).
        """
        names = servers if servers is not None \
            else self.cluster.up_servers()
        transactions: List[CommittedTransaction] = []
        seen = set()
        for name in names:
            database = self.cluster.database(name)
            for record in database.wal.stable_records():
                if record.record_type.value != "commit":
                    continue
                if record.txn_id in seen:
                    continue
                seen.add(record.txn_id)
                transactions.append(CommittedTransaction(
                    txn_id=record.txn_id,
                    commit_order=record.commit_order or 0,
                    read_versions={},
                    write_keys=tuple(record.payload.keys())))
        return bool(check_one_copy_serializability(transactions))

    # -- full audit ------------------------------------------------------------------------
    def report(self, results: Sequence["TransactionResult"]) -> AuditReport:
        """Run every check and assemble the full report."""
        confirmed = [result.txn_id for result in results if result.committed]
        findings = audit_writes(self.cluster, map(ConfirmedWrite, confirmed))
        report = AuditReport(
            technique=self.cluster.technique,
            confirmed_transactions=len(confirmed),
            lost_transactions=sorted(
                finding.txn_id for finding in findings
                if finding.kind is FindingKind.LOST),
            guarantee_histogram=classify_results(results),
            divergent_items=self.divergent_items(),
            serializable=self.serializability())
        return report
