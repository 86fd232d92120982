"""Replication techniques (the replicated database component of Fig. 1).

The package provides the database state machine technique at its three safety
levels (group-safe, group-1-safe, 2-safe on end-to-end atomic broadcast), the
lazy technique at its two (1-safe, 0-safe) — each replica class takes the
:class:`~repro.core.safety.SafetyLevel` it runs at — and the
:class:`ReplicatedDatabaseCluster` facade that wires a whole simulated system
together (update everywhere: any server is a transaction's delegate).
"""

from .base import PendingSubmission, ReplicaServer
from .cluster import TECHNIQUES, ReplicatedDatabaseCluster
from .dbsm import DatabaseStateMachineReplica
from .lazy import PROPAGATION_KIND, LazyReplica
from .results import RunStatistics, TransactionResult

__all__ = [
    "ReplicatedDatabaseCluster",
    "TECHNIQUES",
    "ReplicaServer",
    "PendingSubmission",
    "DatabaseStateMachineReplica",
    "LazyReplica",
    "PROPAGATION_KIND",
    "TransactionResult",
    "RunStatistics",
]
