"""Partitioned replication: sharding the database across replica groups.

The paper studies one replica group whose throughput is capped by a single
total-order broadcast domain.  This package grows the system past that
ceiling: the keyspace is sharded across several independent groups — each
running its own group-communication system and safety technique — a
two-phase commit coordinator provides atomicity for the transactions that
span shards, and an **epoch-versioned routing table** makes ownership live
state: shards split and migrate between groups while the load drivers
keep submitting.

* :mod:`~repro.partition.routing` — the epoch-versioned ownership map:
  key-range -> group assignments, split/migrate, fences,
  WAL-recoverable epoch bumps (``RoutingTable.even_ranges`` builds the
  epoch-0 layout: one contiguous key range per group), and the per-position
  access counts ``rebalance()`` reads its shard loads from;
* :mod:`~repro.partition.router` — snapshot-based single- vs.
  multi-partition classification and program splitting;
* :mod:`~repro.partition.coordinator` — the cross-partition atomic-commit
  protocol (2PC whose participants are replica groups, with branch-epoch
  validation and crash-recovery decision replay);
* :mod:`~repro.partition.cluster` — the :class:`PartitionedCluster` facade:
  submission, failpoints, crash / recovery, and the ``migrate()`` and
  :meth:`~repro.partition.cluster.PartitionedCluster.rebalance` entry points;
* :mod:`~repro.partition.migration` — the live-migration protocol as one
  ``Migration`` object (overlapped copy, dual writes, fence and
  drain, force-logged epoch bump) and its :class:`MigrationReport`;
* :mod:`~repro.partition.workload` — partition-aware workload generation and
  the open-loop load driver, which keeps every answer of either kind in one
  list (summarise a window of it with
  :meth:`~repro.replication.results.RunStatistics.of`).
"""

from .cluster import PartitionedCluster
from .coordinator import (ABORT_TIMEOUT, ABORT_UNAVAILABLE, ABORT_VALIDATION,
                          ABORT_WRONG_EPOCH, BranchOutcome,
                          CrossPartitionCoordinator, CrossPartitionOutcome)
from .migration import MigrationReport
from .router import TransactionRouter
from .routing import (KeyRange, RoutingSnapshot, RoutingTable,
                      ShardAssignment, WrongEpochError, position_of_key)
from .workload import PartitionedOpenLoopClients, PartitionedWorkloadGenerator

__all__ = [
    "PartitionedCluster",
    "MigrationReport",
    "CrossPartitionCoordinator",
    "CrossPartitionOutcome",
    "BranchOutcome",
    "ABORT_VALIDATION",
    "ABORT_TIMEOUT",
    "ABORT_UNAVAILABLE",
    "ABORT_WRONG_EPOCH",
    "RoutingTable",
    "RoutingSnapshot",
    "ShardAssignment",
    "KeyRange",
    "WrongEpochError",
    "position_of_key",
    "TransactionRouter",
    "PartitionedWorkloadGenerator",
    "PartitionedOpenLoopClients",
]
