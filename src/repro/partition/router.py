"""Routing transaction programs against an epoch-versioned ownership map.

The :class:`TransactionRouter` classifies every
:class:`~repro.db.operations.TransactionProgram` by the set of replica
groups its operations touch — against an immutable
:class:`~repro.partition.routing.RoutingSnapshot`, so one transaction sees
one consistent ownership map even while shards split or migrate underneath
it.  Single-partition programs take the fast path — they are
submitted directly to the owning replica group and enjoy exactly the latency
the paper measured for one group.  Multi-partition programs are split into
per-partition *branches* and handed to the
:class:`~repro.partition.coordinator.CrossPartitionCoordinator`.

When ownership moves *under* a routed transaction (a migration bumped the
epoch between classification and execution), the stale routing is detected —
at submission for fenced ranges, or at 2PC vote collection via
:meth:`snapshot_is_current`, which aborts with ``xpartition-wrong-epoch``.
The submission path retries against a fresh snapshot;
:attr:`wrong_epoch_retries` counts those rounds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..db.operations import TransactionProgram
from .routing import RoutingSnapshot, RoutingTable


class TransactionRouter:
    """Classify and split programs by the groups their keys live on."""

    def __init__(self, routing: RoutingTable) -> None:
        #: The live ownership map.
        self.routing = routing
        #: Programs classified as single-partition.
        self.single_partition_count = 0
        #: Programs classified as cross-partition.
        self.cross_partition_count = 0
        #: Submissions re-routed after ownership moved under them (fenced
        #: range at submit, or a wrong-epoch 2PC abort); incremented by the
        #: retry loop in ``PartitionedCluster.submit``.
        self.wrong_epoch_retries = 0

    def snapshot(self) -> RoutingSnapshot:
        """An immutable view of the current ownership map."""
        return self.routing.snapshot()

    # -- classification ---------------------------------------------------------------
    def partitions_of(self, program: TransactionProgram,
                      snapshot=None, keys=None) -> List[int]:
        """Sorted ids of every group touched by ``program``.

        ``keys`` lets a caller that already materialised the program's key
        list (the cluster submit path does, for the fence check) avoid a
        second pass over the operations.
        """
        view = snapshot if snapshot is not None else self.snapshot()
        return view.partitions_of(
            keys if keys is not None else
            (operation.key for operation in program.operations))

    def classify(self, program: TransactionProgram,
                 snapshot=None, keys=None) -> List[int]:
        """Like :meth:`partitions_of`, but also updates the routing counters."""
        partitions = self.partitions_of(program, snapshot=snapshot, keys=keys)
        if len(partitions) == 1:
            self.single_partition_count += 1
        else:
            self.cross_partition_count += 1
        return partitions

    # -- epoch validation ---------------------------------------------------------------
    def snapshot_is_current(self, keys: Iterable[str], snapshot) -> bool:
        """True if ``snapshot`` still routes every key of ``keys`` correctly.

        Cheap when the epoch has not moved; after a bump, ownership is
        compared key by key (a split or an unrelated migration bumps the
        epoch without invalidating this transaction's routing).
        """
        current = self.snapshot()
        if current.epoch == snapshot.epoch:
            return True
        return all(current.partition_of(key) == snapshot.partition_of(key)
                   for key in keys)

    # -- splitting -----------------------------------------------------------------------
    def split(self, program: TransactionProgram,
              snapshot=None) -> Dict[int, TransactionProgram]:
        """Split ``program`` into one branch program per touched group.

        Each branch keeps its operations in original program order, so the
        per-partition read/write semantics are unchanged.  Branch programs get
        fresh program ids (they become independent transactions on their
        partition); the originating client name is preserved.
        """
        view = snapshot if snapshot is not None else self.snapshot()
        by_partition: Dict[int, List] = {}
        for operation in program.operations:
            partition_id = view.partition_of(operation.key)
            by_partition.setdefault(partition_id, []).append(operation)
        return {
            partition_id: TransactionProgram(operations=tuple(operations),
                                             client=program.client)
            for partition_id, operations in sorted(by_partition.items())
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<TransactionRouter single={self.single_partition_count} "
                f"cross={self.cross_partition_count} "
                f"retries={self.wrong_epoch_retries}>")
