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
migration bumps the epoch, the per-partition key caches are rebuilt lazily,
so "single-partition" transactions keep landing on one *current* owner — the
whole point of moving a hot range is that the traffic follows it.

Every draw comes from named random streams, so two runs with the same seed —
or two *techniques* compared under the same seed — see exactly the same
sequence of programs until the first epoch change forces them to differ.

Two load drivers are provided, mirroring the single-group client models:

* :class:`PartitionedOpenLoopClients` — open loop, Poisson arrivals at a
  fixed system-wide rate (the Fig. 9 X-axis discipline);
* :class:`PartitionedClosedLoopClients` — the Table 4 client model taken
  literally: ``clients_per_server`` clients per server across all groups,
  each thinking an exponential time between transactions.

Both submit through :meth:`~repro.partition.cluster.PartitionedCluster.
submit_retrying`, so a client whose keys are mid-migration transparently
retries against the new epoch, and both keep per-epoch and during-migration
commit counters for the rebalance experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..db.operations import Operation, OperationType, TransactionProgram
from ..replication.results import TransactionResult
from ..sim.engine import Simulator
from ..workload.generator import WorkloadGenerator
from ..workload.params import SimulationParameters
from .coordinator import CrossPartitionOutcome
from .routing import RoutingTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .cluster import PartitionedCluster


class PartitionedWorkloadGenerator(WorkloadGenerator):
    """Table 4 transactions, confined to or deliberately spanning partitions."""

    def __init__(self, sim: Simulator, params: SimulationParameters,
                 routing: RoutingTable,
                 item_keys: Optional[Sequence[str]] = None,
                 stream_prefix: str = "workload",
                 skew: Optional[float] = None) -> None:
        super().__init__(sim, params, item_keys=item_keys,
                         stream_prefix=stream_prefix, skew=skew)
        #: The ownership map.
        self.routing = routing
        if not 0.0 <= params.cross_partition_probability <= 1.0:
            raise ValueError("cross-partition probability out of range")
        # Interned stream handles for the partition-specific draws (the base
        # class hoists the item/length/write/arrival streams).
        streams = sim.random
        self._xpartition_stream = streams.stream(
            f"{stream_prefix}.xpartition")
        self._members_stream = streams.stream(
            f"{stream_prefix}.xpartition.members")
        self._op_partition_stream = streams.stream(
            f"{stream_prefix}.op_partition")
        self._global_rank = {key: index for index, key in
                             enumerate(self.item_keys)} if self.skew > 0 \
            else {}
        #: Current rotation of the Zipf ranking (see :meth:`shift_hotspot`).
        self.hot_offset = 0
        self._seen_epoch = routing.epoch
        self._refresh_partition_caches(strict=True)
        #: Statistics.
        self.single_partition_generated = 0
        self.cross_partition_generated = 0

    # -- ownership caches ----------------------------------------------------------------
    def _refresh_partition_caches(self, strict: bool = False) -> None:
        """Rebuild the per-partition key/weight tables from current ownership.

        ``strict`` (construction time) refuses empty partitions — a
        mis-sized initial layout is a configuration error.  Later refreshes
        tolerate them: after migrations a group may legitimately own
        nothing, and the generator simply stops targeting it.
        """
        self._keys_by_partition: Dict[int, List[str]] = \
            self.routing.partition_keys(self.item_keys)
        empty = [pid for pid in range(self.routing.partition_count)
                 if not self._keys_by_partition.get(pid)]
        if empty and strict:
            raise ValueError(
                f"partitions {empty} own no items; use more items or fewer "
                f"partitions")
        self._nonempty_partitions: List[int] = [
            pid for pid in range(self.routing.partition_count)
            if self._keys_by_partition.get(pid)]
        # Per-partition cumulative weight tables for skewed draws: each key
        # keeps the weight of its *global* rank, so restricting a transaction
        # to one partition preserves the shape of the hot set.
        self._cumulative_by_partition: Dict[int, List[float]] = {}
        if self.skew > 0:
            for partition_id, keys in self._keys_by_partition.items():
                total = 0.0
                cumulative: List[float] = []
                for key in keys:
                    total += (self._global_rank[key] + 1) ** -self.skew
                    cumulative.append(total)
                self._cumulative_by_partition[partition_id] = cumulative

    def _refresh_if_stale(self) -> None:
        epoch = self.routing.epoch
        if epoch != self._seen_epoch:
            self._seen_epoch = epoch
            self._refresh_partition_caches(strict=False)

    # -- hotspot injection ---------------------------------------------------------------
    def shift_hotspot(self, offset: int) -> None:
        """Rotate the Zipf ranking by ``offset`` positions mid-run.

        The access distribution keeps its exact shape but the hot head moves
        to ``item-<offset>``: after the shift, item ``i`` carries the weight
        of global rank ``(i - offset) mod item_count``.  This is the
        workload-side fault injection of the autobalance experiments — a
        sudden hotspot shift the controller must detect and repair without
        operator action.  A no-op for uniform workloads (skew 0).
        """
        if self.skew <= 0:
            return
        count = len(self.item_keys)
        offset %= count
        self.hot_offset = offset
        self._global_rank = {key: (index - offset) % count
                             for index, key in enumerate(self.item_keys)}
        total = 0.0
        cumulative: List[float] = []
        for key in self.item_keys:
            total += (self._global_rank[key] + 1) ** -self.skew
            cumulative.append(total)
        self._cumulative = cumulative
        self._refresh_partition_caches(strict=False)

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
        self._refresh_if_stale()
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


class _PartitionedClientBase:
    """Shared bookkeeping of the partitioned load drivers."""

    def __init__(self, cluster: "PartitionedCluster",
                 warmup: float = 0.0) -> None:
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.workload: PartitionedWorkloadGenerator = cluster.workload
        self.warmup = warmup
        #: Fast-path results observed after warm-up.
        self.single_results: List[TransactionResult] = []
        #: Cross-partition outcomes observed after warm-up.
        self.cross_results: List[CrossPartitionOutcome] = []
        #: Results whose submission fell inside the warm-up window (kept for
        #: the commit-integrity audits, excluded from the statistics).
        self.warmup_single_results: List[TransactionResult] = []
        self.warmup_cross_results: List[CrossPartitionOutcome] = []
        self.warmup_count = 0
        self.submitted_count = 0
        #: Arrivals dropped because no delegate was reachable.
        self.rejected_count = 0
        #: Committed transactions per routing epoch (at response time).
        self.epoch_commits: Dict[int, int] = {}
        #: Client-visible terminations while a migration was in flight.
        self.during_migration_commits = 0
        self.during_migration_aborts = 0

    def _run_one(self, program: TransactionProgram, client_index: int):
        """Generator: submit one program (with epoch retries) and record it."""
        submitted_at = self.sim.now
        try:
            outcome = yield from self.cluster.submit_retrying(
                program, client_index=client_index)
        except RuntimeError:
            # Every server of the owning partition is down right now.
            self.rejected_count += 1
            return
        self.submitted_count += 1
        self._record(outcome, submitted_at)

    def _record(self, outcome, submitted_at: float) -> None:
        if self.cluster.migration_active:
            if outcome.committed:
                self.during_migration_commits += 1
            else:
                self.during_migration_aborts += 1
        if outcome.committed:
            epoch = self.cluster.routing.epoch
            self.epoch_commits[epoch] = self.epoch_commits.get(epoch, 0) + 1
        if submitted_at < self.warmup:
            self.warmup_count += 1
            if isinstance(outcome, CrossPartitionOutcome):
                self.warmup_cross_results.append(outcome)
            else:
                self.warmup_single_results.append(outcome)
            return
        if isinstance(outcome, CrossPartitionOutcome):
            self.cross_results.append(outcome)
        else:
            self.single_results.append(outcome)

    # -- derived statistics -------------------------------------------------------------
    @property
    def results(self) -> List[object]:
        """All post-warm-up results (fast path first, then cross-partition)."""
        return list(self.single_results) + list(self.cross_results)

    @property
    def committed_count(self) -> int:
        """Committed transactions of both kinds after warm-up."""
        return sum(1 for result in self.results if result.committed)

    def response_times(self, committed_only: bool = True) -> List[float]:
        """Response times (ms) of post-warm-up transactions."""
        return [result.response_time for result in self.results
                if result.committed or not committed_only]


class PartitionedOpenLoopClients(_PartitionedClientBase):
    """Poisson arrivals at a fixed system-wide rate against a partitioned cluster."""

    def __init__(self, cluster: "PartitionedCluster", load_tps: float,
                 warmup: float = 0.0) -> None:
        super().__init__(cluster, warmup=warmup)
        if load_tps <= 0:
            raise ValueError("load must be positive")
        self.load_tps = load_tps
        self._next_client = 0

    def start(self) -> None:
        """Start the arrival process."""
        self.sim.spawn(self._arrivals(), name="clients.partitioned_open_loop")

    def _arrivals(self):
        while True:
            gap = self.workload.interarrival_time(self.load_tps)
            yield self.sim.timeout(gap)
            client_index = self._next_client
            self._next_client += 1
            program = self.workload.next_program(
                client=f"client-{client_index}")
            self.sim.spawn(self._run_one(program, client_index),
                           name=f"client.txn.{program.program_id}")


class PartitionedClosedLoopClients(_PartitionedClientBase):
    """Table 4's client model across a partitioned cluster.

    ``clients_per_server`` clients per server of every group, each
    submitting a fresh transaction an exponential think time after its
    previous one terminated — the self-throttling load model of the paper,
    now spanning shards (the ROADMAP "closed-loop client pool" item).
    """

    def __init__(self, cluster: "PartitionedCluster", think_time_mean: float,
                 warmup: float = 0.0,
                 clients_per_server: Optional[int] = None) -> None:
        super().__init__(cluster, warmup=warmup)
        if think_time_mean <= 0:
            raise ValueError("think time must be positive")
        self.think_time_mean = think_time_mean
        self.clients_per_server = clients_per_server or \
            cluster.params.clients_per_server

    @property
    def client_count(self) -> int:
        """Total number of closed-loop clients."""
        return self.clients_per_server * len(self.cluster.server_names())

    def start(self) -> None:
        """Start every client process."""
        client_index = 0
        for server in self.cluster.server_names():
            for _ in range(self.clients_per_server):
                name = f"client-{client_index}"
                self.sim.spawn(self._client_loop(name, client_index),
                               name=f"clients.{name}")
                client_index += 1

    def _client_loop(self, client_name: str, client_index: int):
        think_stream = self.sim.random.stream(f"clients.{client_name}.think")
        think_rate = 1.0 / self.think_time_mean
        while True:
            yield self.sim.timeout(think_stream.expovariate(think_rate))
            program = self.workload.next_program(client=client_name)
            yield from self._run_one(program, client_index)
