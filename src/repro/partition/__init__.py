"""Partitioned replication: sharding the database across replica groups.

The paper studies one replica group whose throughput is capped by a single
total-order broadcast domain.  This package grows the system past that
ceiling: the keyspace is sharded across several independent groups — each
running its own group-communication system and safety technique — a
two-phase commit coordinator provides atomicity for the transactions that
span shards, and an **epoch-versioned routing table** makes ownership live
state: shards split, merge and migrate between groups while the load
drivers keep submitting.

* :mod:`~repro.partition.routing` — the epoch-versioned ownership map:
  key-range -> group assignments, split/merge/migrate, fences,
  WAL-recoverable epoch bumps (``RoutingTable.from_strategy`` builds the
  static hash/range layouts the retired partitioner shims used to provide);
* :mod:`~repro.partition.router` — snapshot-based single- vs.
  multi-partition classification and program splitting;
* :mod:`~repro.partition.coordinator` — the cross-partition atomic-commit
  protocol (2PC whose participants are replica groups, with branch-epoch
  validation and crash-recovery decision replay);
* :mod:`~repro.partition.cluster` — the :class:`PartitionedCluster` facade:
  submission, failpoints, crash / recovery, and the ``migrate()`` and
  :meth:`~repro.partition.cluster.PartitionedCluster.rebalance` entry points;
* :mod:`~repro.partition.migration` — the live-migration protocol as one
  ``Migration`` object (overlapped, throttled copy, dual writes, fence and
  drain, force-logged epoch bump) and its :class:`MigrationReport`;
* :mod:`~repro.partition.controller` — the autobalance
  :class:`RebalanceController`: windowed load watching, thresholds,
  cooldowns and hysteresis driving ``rebalance()`` with no operator;
* :mod:`~repro.partition.workload` — partition-aware workload generation and
  the open- and closed-loop load drivers;
* :mod:`~repro.partition.stats` — aggregated run statistics.
"""

from .cluster import PartitionedCluster
from .controller import ControllerStats, RebalanceController
from .coordinator import (ABORT_TIMEOUT, ABORT_UNAVAILABLE, ABORT_VALIDATION,
                          ABORT_WRONG_EPOCH, BranchOutcome,
                          CrossPartitionCoordinator, CrossPartitionOutcome)
from .migration import MigrationReport
from .router import TransactionRouter
from .routing import (STRATEGIES, KeyRange, RoutingSnapshot, RoutingTable,
                      ShardAssignment, WrongEpochError, position_of_key)
from .stats import (PartitionedRunStatistics, collect_statistics,
                    render_partition_table)
from .workload import (PartitionedClosedLoopClients, PartitionedOpenLoopClients,
                       PartitionedWorkloadGenerator)

__all__ = [
    "PartitionedCluster",
    "MigrationReport",
    "RebalanceController",
    "ControllerStats",
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
    "STRATEGIES",
    "TransactionRouter",
    "PartitionedWorkloadGenerator",
    "PartitionedOpenLoopClients",
    "PartitionedClosedLoopClients",
    "PartitionedRunStatistics",
    "collect_statistics",
    "render_partition_table",
]
