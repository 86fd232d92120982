"""Partition-aware workload generation and load drivers.

:class:`PartitionedWorkloadGenerator` extends the Table 4 workload model with
the two knobs the partitioned experiments sweep:

* ``cross_partition_probability`` — the fraction of transactions that span
  more than one partition (``cross_partition_span`` of them, default 2);
* ``zipf_skew`` — inherited from :class:`~repro.workload.WorkloadGenerator`:
  item accesses follow a Zipf distribution over the global item ranking, so a
  skewed workload concentrates on the hot head of the keyspace.

The generator reads ownership from the cluster's epoch-versioned
:class:`~repro.partition.routing.RoutingTable`: when a shard split or a live
migration bumps the epoch, the next program rebuilds the per-partition key
and weight tables, so "single-partition" transactions keep landing on one
*current* owner — the whole point of moving a hot range is that the traffic
follows it.  A rebuild routes no key: each group's keys are the slices of
the shared key tuple its shards cover (:meth:`~repro.partition.routing.
RoutingTable.selector`), and its weight table accumulates the same slices
of one per-rank weight tuple, so an ownership change costs O(shards) Python
work plus C-level copies, whatever the keyspace size.

Every draw comes from named random streams, so two runs with the same seed —
or two *techniques* compared under the same seed — see exactly the same
sequence of programs until the first epoch change forces them to differ.

The load driver, :class:`PartitionedOpenLoopClients`, is the single-group
:class:`~repro.workload.clients.OpenLoopClientPool` with another arrival:
open loop, Poisson arrivals at a fixed system-wide rate (the Fig. 9 X-axis
discipline).  Each arrival runs
:meth:`~repro.partition.cluster.PartitionedCluster.submit`, which retries a
client whose keys are mid-migration against the new epoch and answers every
program.  The pool keeps every answer of either kind in one list, in answer
order, and per-epoch and during-migration commit counters for the rebalance
experiments.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..db.operations import Operation, OperationType, TransactionProgram
from ..sim.engine import Simulator
from ..workload.clients import OpenLoopClientPool
from ..workload.generator import WorkloadGenerator, zipf_weights
from ..workload.params import SimulationParameters
from .routing import RoutingTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .cluster import PartitionedCluster


class PartitionedWorkloadGenerator(WorkloadGenerator):
    """Table 4 transactions, confined to or deliberately spanning partitions."""

    def __init__(self, sim: Simulator, params: SimulationParameters,
                 routing: RoutingTable) -> None:
        super().__init__(sim, params)
        #: The ownership map.
        self.routing = routing
        if not 0.0 <= params.cross_partition_probability <= 1.0:
            raise ValueError("cross-partition probability out of range")
        # Interned stream handles for the partition-specific draws (the base
        # class hoists the item/length/write/arrival streams).
        streams = sim.random
        self._xpartition_stream = streams.stream("workload.xpartition")
        self._members_stream = streams.stream("workload.xpartition.members")
        self._op_partition_stream = streams.stream("workload.op_partition")
        self._refresh_partition_caches(strict=True)
        #: Statistics.
        self.single_partition_generated = 0
        self.cross_partition_generated = 0

    # -- ownership caches ----------------------------------------------------------------
    def _refresh_partition_caches(self, strict: bool = False) -> None:
        """Rebuild the per-partition key/weight tables from current ownership.

        ``strict`` (construction time) refuses empty partitions — a
        mis-sized initial layout is a configuration error.  Later refreshes
        (the first program of each new epoch) tolerate them: after
        migrations a group may legitimately own nothing, and the generator
        simply stops targeting it.
        """
        routing = self.routing
        self._seen_epoch = routing.epoch
        assignments = routing.assignments
        # Per-partition cumulative weight tables for skewed draws (none for
        # uniform ones): each key keeps the weight of its *global* rank, so
        # restricting a transaction to one partition preserves the shape of
        # the hot set.
        weights = (zipf_weights(len(self.item_keys), self.skew)
                   if self.skew > 0 else None)
        self._keys_by_partition: Dict[int, Tuple[str, ...]] = {}
        self._cumulative_by_partition: Dict[int, Tuple[float, ...]] = {}
        for partition_id in range(routing.partition_count):
            pick = routing.selector([
                assignment.key_range for assignment in assignments
                if assignment.group_id == partition_id])
            self._keys_by_partition[partition_id] = tuple(pick(self.item_keys))
            if weights is not None:
                self._cumulative_by_partition[partition_id] = tuple(
                    accumulate(pick(weights)))
        empty = [partition_id for partition_id, keys
                 in self._keys_by_partition.items() if not keys]
        if empty and strict:
            raise ValueError(
                f"partitions {empty} own no items; use more items or fewer "
                f"partitions")
        self._nonempty_partitions: List[int] = [
            partition_id for partition_id, keys
            in self._keys_by_partition.items() if keys]

    # -- generation ----------------------------------------------------------------------
    def next_program(self, client: str = "client") -> TransactionProgram:
        """Generate the next (single- or cross-partition) program.

        A single-partition program draws every key from the *global* item
        distribution: the first draw decides the home partition (so a hot
        partition attracts proportionally more transactions), and each later
        operation draws within the home partition with its keys' global rank
        mass.  Summed over partitions this makes every operation's marginal
        distribution exactly the global (uniform or Zipf) one — partitioning
        changes *where* keys live, not *how often* each is accessed.
        Cross-partition programs pin one operation to each
        of ``cross_partition_span`` uniformly sampled partitions and spread
        the rest across the involved set.
        """
        if self.routing.epoch != self._seen_epoch:
            self._refresh_partition_caches()
        length = self._length_stream.randint(
            self.params.transaction_length_min,
            self.params.transaction_length_max)
        span = min(self.params.cross_partition_span,
                   len(self._nonempty_partitions), length)
        cross = span >= 2 and (self._xpartition_stream.random() <
                               self.params.cross_partition_probability)
        first_key: Optional[str] = None
        if cross:
            self.cross_partition_generated += 1
            partition_ids = self._members_stream.sample(
                self._nonempty_partitions, span)
        else:
            self.single_partition_generated += 1
            first_key = self.choose_key()
            partition_ids = [self.routing.partition_of(first_key)]

        pinned = len(partition_ids)
        write_random = self._write_stream.random
        write_probability = self.params.write_probability
        operations: List[Operation] = []
        append = operations.append
        for position in range(length):
            if first_key is not None and position == 0:
                key = first_key
            else:
                if position < pinned:
                    # Pinned: one operation per involved partition guarantees
                    # the program genuinely spans all of them.
                    partition_id = partition_ids[position]
                else:
                    partition_id = self._op_partition_stream.choice(
                        partition_ids)
                key = self.choose_key(
                    keys=self._keys_by_partition[partition_id],
                    cumulative=self._cumulative_by_partition.get(partition_id))
            if write_random() < write_probability:
                append(Operation(OperationType.WRITE, key,
                                 value=f"{client}@{position}"))
            else:
                append(Operation(OperationType.READ, key))
        self.generated_count += 1
        return TransactionProgram(operations=tuple(operations), client=client)


class PartitionedOpenLoopClients(OpenLoopClientPool):
    """Poisson arrivals at a fixed system-wide rate against a partitioned cluster.

    Each answer in :attr:`results` is a fast-path
    :class:`~repro.replication.results.TransactionResult` or a
    :class:`~repro.partition.coordinator.CrossPartitionOutcome`.
    """

    def __init__(self, cluster: "PartitionedCluster",
                 load_tps: float) -> None:
        super().__init__(cluster, load_tps)
        #: Arrivals answered ``partition-unavailable``: no server of their
        #: partition took submissions.  They are not in :attr:`results`.
        self.rejected_count = 0
        #: Committed transactions per routing epoch (at response time).
        self.epoch_commits: Dict[int, int] = {}
        #: Client-visible terminations while a migration was in flight.
        self.during_migration_commits = 0
        self.during_migration_aborts = 0

    def _arrive(self, client_index: int) -> None:
        program = self.workload.next_program(client=f"client-{client_index}")
        self.sim.spawn(self._run_one(program, client_index),
                       name=f"client.txn.{program.program_id}")

    def _run_one(self, program: TransactionProgram, client_index: int):
        """Generator: submit one program and record its answer."""
        outcome = yield from self.cluster.submit(program,
                                                 client_index=client_index)
        if outcome.abort_reason == "partition-unavailable":
            self.rejected_count += 1
            return
        self.submitted_count += 1
        if self.cluster.migration_active:
            if outcome.committed:
                self.during_migration_commits += 1
            else:
                self.during_migration_aborts += 1
        if outcome.committed:
            epoch = self.cluster.routing.epoch
            self.epoch_commits[epoch] = self.epoch_commits.get(epoch, 0) + 1
        self.results.append(outcome)
