"""Replication techniques (the replicated database component of Fig. 1).

The package provides the database state machine technique at its three safety
levels (group-safe, group-1-safe, 2-safe on end-to-end atomic broadcast), the
lazy technique at its two (1-safe, 0-safe) — each replica class takes the
:class:`~repro.core.safety.SafetyLevel` it runs at — routing policies
(update-everywhere vs. primary copy) and the
:class:`ReplicatedDatabaseCluster` facade that wires a whole simulated system
together.
"""

from .base import PendingSubmission, ReplicaServer
from .cluster import (GROUP_BASED_TECHNIQUES, TECHNIQUES,
                      ReplicatedDatabaseCluster)
from .dbsm import DatabaseStateMachineReplica
from .lazy import PROPAGATION_KIND, LazyReplica
from .primary_copy import (PrimaryCopyRouting, RoutingPolicy,
                           UpdateEverywhereRouting, make_routing)
from .results import RunStatistics, TransactionResult

__all__ = [
    "ReplicatedDatabaseCluster",
    "TECHNIQUES",
    "GROUP_BASED_TECHNIQUES",
    "ReplicaServer",
    "PendingSubmission",
    "DatabaseStateMachineReplica",
    "LazyReplica",
    "PROPAGATION_KIND",
    "RoutingPolicy",
    "UpdateEverywhereRouting",
    "PrimaryCopyRouting",
    "make_routing",
    "TransactionResult",
    "RunStatistics",
]
