"""Durability checks over a (possibly crashed and recovered) cluster.

"Losing a transaction" in the sense of the paper means: a client was told its
transaction committed, and yet the replicated database — after the failure
pattern under study and the subsequent recoveries — does not (and never will)
reflect it.  The functions below decide this question for a concrete
:class:`~repro.replication.cluster.ReplicatedDatabaseCluster`, looking at the
evidence that survives crashes:

* the testable-transaction registry and the write-ahead log of every *up*
  server (is the transaction already committed / durably logged there?);
* the group-communication component's stable message log (will the
  transaction still be delivered and processed — the end-to-end case?);
* pending, not-yet-processed deliveries of up servers (the transaction is
  still on its way to being committed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..replication.cluster import ReplicatedDatabaseCluster


@dataclass
class TransactionFate:
    """Where a confirmed transaction stands after a failure scenario."""

    txn_id: str
    confirmed_to_client: bool
    committed_on: List[str] = field(default_factory=list)
    durably_logged_on: List[str] = field(default_factory=list)
    recoverable_from_gcs_log_on: List[str] = field(default_factory=list)
    pending_delivery_on: List[str] = field(default_factory=list)
    surviving_servers: List[str] = field(default_factory=list)

    @property
    def is_lost(self) -> bool:
        """True if no up server has, or will ever regain, the transaction."""
        reachable = (set(self.committed_on) | set(self.durably_logged_on) |
                     set(self.recoverable_from_gcs_log_on) |
                     set(self.pending_delivery_on))
        return self.confirmed_to_client and not (reachable &
                                                 set(self.surviving_servers))


def transaction_fate(cluster: "ReplicatedDatabaseCluster", txn_id: str,
                     confirmed_to_client: bool = True,
                     servers: Optional[Sequence[str]] = None) -> TransactionFate:
    """Collect the evidence about ``txn_id`` across the cluster's servers."""
    names = list(servers) if servers is not None else cluster.server_names()
    fate = TransactionFate(txn_id=txn_id,
                           confirmed_to_client=confirmed_to_client)
    fate.surviving_servers = [name for name in names
                              if cluster.node(name).is_up]
    for name in names:
        database = cluster.database(name)
        if database.testable.has_committed(txn_id):
            fate.committed_on.append(name)
        if database.wal.is_logged(txn_id):
            fate.durably_logged_on.append(name)
        if cluster.gcs is not None:
            endpoint = cluster.gcs.endpoint(name)
            if endpoint.journal is not None:
                for entry in endpoint.journal.unacknowledged():
                    payload = entry.payload
                    if getattr(payload, "txn_id", None) == txn_id:
                        fate.recoverable_from_gcs_log_on.append(name)
                        break
            for item in list(endpoint.deliveries._items):
                payload = getattr(item, "payload", None)
                if getattr(payload, "txn_id", None) == txn_id:
                    fate.pending_delivery_on.append(name)
                    break
    return fate


# repro: allow(unused-surface): only its own test uses it; ROADMAP 7(b)
def committed_state_of(cluster: "ReplicatedDatabaseCluster",
                       servers: Optional[Sequence[str]] = None
                       ) -> Dict[str, List[str]]:
    """Mapping server -> committed transaction ids (for audits and tests)."""
    names = list(servers) if servers is not None else cluster.server_names()
    return {name: sorted(cluster.database(name).testable.committed_ids())
            for name in names}
