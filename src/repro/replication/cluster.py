"""Facade assembling a complete replicated database cluster.

:class:`ReplicatedDatabaseCluster` builds, for one replication technique, the
whole simulated system of the paper: the LAN, one node per server with the
Table 4 CPUs and disks, one local database per server, the group-communication
system (for the group-based techniques) and one replica server per node.  It
is the entry point used by the examples, the experiments and most tests.

Typical use::

    from repro.replication import ReplicatedDatabaseCluster
    from repro.workload import SimulationParameters

    cluster = ReplicatedDatabaseCluster("group-safe",
                                        params=SimulationParameters.small(),
                                        seed=42)
    cluster.start()
    program = cluster.workload.next_program()
    outcome = cluster.run_transaction(program)      # a simulation Process
    cluster.sim.run(until=1_000)
    print(outcome.value)                            # TransactionResult
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.criteria import TECHNIQUE_SAFETY
from ..core.layers import implements, uses
from ..core.safety import DeliveredOn, LoggedOn
from ..db.engine import LocalDatabase
from ..db.operations import TransactionProgram
from ..gcs.system import GroupCommunicationSystem
from ..network.dispatch import Dispatcher
from ..network.lan import Lan
from ..network.node import Node
from ..sim.engine import Simulator
from ..sim.events import Event
from ..sim.process import Process
from ..workload.generator import WorkloadGenerator
from ..workload.params import SimulationParameters
from .base import ReplicaServer
from .dbsm import DatabaseStateMachineReplica
from .lazy import LazyReplica
from .primary_copy import RoutingPolicy, make_routing
from .results import TransactionResult

#: Names accepted by :class:`ReplicatedDatabaseCluster`: the rows of
#: :data:`~repro.core.criteria.TECHNIQUE_SAFETY`, in presentation order.
TECHNIQUES = ("group-safe", "group-1-safe", "2-safe", "1-safe", "0-safe")

#: Techniques built on atomic broadcast — the delivered-on-all rows of
#: Table 1 (the others are lazy variants).
GROUP_BASED_TECHNIQUES = tuple(
    name for name in TECHNIQUES
    if TECHNIQUE_SAFETY[name].delivered_on is DeliveredOn.ALL)

#: Maximum number of dirty (modified, not yet written) items a server's
#: buffer pool holds before the apply stage is throttled.  Bounding the write
#: cache is what keeps asynchronous disk writes honest under overload.
BUFFER_MAX_DIRTY = 300

#: Disk-time factor of background (write-behind) page writes relative to
#: random in-transaction writes; models the "writes of adjacent pages
#: scheduled together" optimisation the paper attributes to write caching
#: (Sect. 5.1).  An explicit modelling substitution: the paper gives no
#: figure for it.
WRITE_BEHIND_EFFICIENCY = 0.88

#: Failure-detection delay of the (perfect) failure detector (ms).
FAILURE_DETECTION_DELAY = 1.0


@implements("replication")
@uses("total_order")
class ReplicatedDatabaseCluster:
    """A fully wired replicated database running one replication technique."""

    def __init__(self, technique: str = "group-safe",
                 params: Optional[SimulationParameters] = None,
                 seed: int = 0, sim: Optional[Simulator] = None,
                 routing: str = "update-everywhere",
                 primary: Optional[str] = None,
                 gcs_delivery_log_time: float = 0.0,
                 lan: Optional[Lan] = None,
                 name_prefix: str = "") -> None:
        if technique not in TECHNIQUES:
            raise ValueError(
                f"unknown technique {technique!r}; expected one of {TECHNIQUES}")
        self.technique = technique
        #: The Table 1 row this cluster runs; everything technique-specific
        #: below is read off its two axes.
        self.level = TECHNIQUE_SAFETY[technique]
        self.params = params or SimulationParameters.paper()
        self.sim = sim or Simulator(seed=seed)
        self.routing: RoutingPolicy = make_routing(routing, primary)
        #: Prefix prepended to every server name; lets several replica groups
        #: (e.g. the partitions of :class:`~repro.partition.PartitionedCluster`)
        #: coexist on one shared LAN without name collisions.
        self.name_prefix = name_prefix
        self.lan = lan if lan is not None \
            else Lan(self.sim, latency=self.params.network_latency)
        self.nodes: Dict[str, Node] = {}
        self.databases: Dict[str, LocalDatabase] = {}
        self.replicas: Dict[str, ReplicaServer] = {}
        self._dispatchers: Dict[str, Dispatcher] = {}
        self.gcs: Optional[GroupCommunicationSystem] = None
        self._started = False

        for base_name in self.params.server_names():
            name = f"{name_prefix}{base_name}"
            node = Node(self.sim, name,
                        cpus=self.params.cpus_per_server,
                        disks=self.params.disks_per_server,
                        cpu_time_per_io=self.params.cpu_time_per_io,
                        cpu_time_per_network_op=self.params.cpu_time_per_network_op)
            self.lan.attach(node)
            self.nodes[name] = node
            self.databases[name] = LocalDatabase(
                self.sim, node, item_count=self.params.item_count,
                hit_ratio=self.params.buffer_hit_ratio,
                read_time_low=self.params.read_time_min,
                read_time_high=self.params.read_time_max,
                write_time_low=self.params.write_time_min,
                write_time_high=self.params.write_time_max,
                buffer_max_dirty=BUFFER_MAX_DIRTY,
                background_write_factor=WRITE_BEHIND_EFFICIENCY)

        if self.level.delivered_on is DeliveredOn.ALL:
            self.gcs = GroupCommunicationSystem(
                self.sim, self.lan, nodes=list(self.nodes.values()),
                end_to_end=self.level.logged_on is LoggedOn.ALL,
                delivery_cpu_time=self.params.cpu_time_per_network_op,
                delivery_log_time=gcs_delivery_log_time,
                detection_delay=FAILURE_DETECTION_DELAY,
                engine=self.params.broadcast_engine,
                detector_mode=self.params.failure_detector_mode,
                heartbeat_period=self.params.heartbeat_period,
                heartbeat_timeout=self.params.heartbeat_timeout)
            for name, node in self.nodes.items():
                self._dispatchers[name] = self.gcs.dispatcher(name)
        else:
            for name, node in self.nodes.items():
                self._dispatchers[name] = Dispatcher(self.sim, node)

        for name, node in self.nodes.items():
            self.replicas[name] = self._build_replica(name, node)

        self.workload = WorkloadGenerator(self.sim, self.params)

    # ------------------------------------------------------------------ construction
    def _build_replica(self, name: str, node: Node) -> ReplicaServer:
        database = self.databases[name]
        dispatcher = self._dispatchers[name]
        if self.gcs is not None:
            return DatabaseStateMachineReplica(
                self.sim, node, database, dispatcher, self.params,
                self.gcs.endpoint(name), self.level)
        return LazyReplica(self.sim, node, database, dispatcher, self.params,
                           self.lan, list(self.nodes), self.level)

    # ------------------------------------------------------------------ access
    def server_names(self) -> List[str]:
        """Names of all servers, in order."""
        return list(self.replicas)

    def replica(self, name: str) -> ReplicaServer:
        """The replica server called ``name``."""
        return self.replicas[name]

    def node(self, name: str) -> Node:
        """The node hosting server ``name``."""
        return self.nodes[name]

    def database(self, name: str) -> LocalDatabase:
        """The local database of server ``name``."""
        return self.databases[name]

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start every server that is currently up."""
        if self._started:
            return
        self._started = True
        for name, replica in self.replicas.items():
            if self.nodes[name].is_up:
                replica.start()

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation (convenience passthrough)."""
        return self.sim.run(until=until)

    # ------------------------------------------------------------------ submission
    def choose_delegate(self, client_index: int = 0) -> str:
        """Pick a delegate server for a client according to the routing policy."""
        up_servers = [name for name, node in self.nodes.items() if node.is_up]
        return self.routing.choose(up_servers, client_index)

    def submit(self, program: TransactionProgram,
               server: Optional[str] = None, client_index: int = 0) -> Event:
        """Submit ``program`` to ``server`` (or a routed delegate)."""
        delegate = server or self.choose_delegate(client_index)
        return self.replicas[delegate].submit(program)

    def run_transaction(self, program: TransactionProgram,
                        server: Optional[str] = None) -> Process:
        """Submit and wrap the wait for the result into a process.

        The returned :class:`~repro.sim.process.Process` completes with the
        :class:`~repro.replication.results.TransactionResult`; useful in
        tests and examples that drive single transactions.
        """
        def waiter():
            result = yield self.submit(program, server=server)
            return result
        return self.sim.spawn(waiter(), name=f"client.{program.program_id}")

    # ------------------------------------------------------------------ failures
    def crash_server(self, name: str) -> None:
        """Crash the node hosting server ``name``."""
        self.nodes[name].crash()

    def crash_all(self) -> None:
        """Crash every server (the catastrophic scenario of Fig. 5)."""
        for node in self.nodes.values():
            node.crash()

    def recover_server(self, name: str) -> Process:
        """Recover the node and run the technique's recovery procedure.

        Returns the recovery :class:`~repro.sim.process.Process`; run the
        simulation to let it finish.
        """
        node = self.nodes[name]
        if node.is_crashed:
            node.recover()
        replica = self.replicas[name]
        return self.sim.spawn(replica.recover_after_crash(),
                              name=f"recover.{name}")

    def up_servers(self) -> List[str]:
        """Names of the servers currently up."""
        return [name for name, node in self.nodes.items() if node.is_up]

    # ------------------------------------------------------------------ results
    def all_results(self) -> List[TransactionResult]:
        """Every client-visible result produced so far, across all servers."""
        results: List[TransactionResult] = []
        for replica in self.replicas.values():
            results.extend(replica.results)
        return sorted(results, key=lambda result: result.responded_at)

    def committed_everywhere(self, txn_id: str,
                             servers: Optional[Sequence[str]] = None) -> bool:
        """True if ``txn_id`` is recorded as committed on all given servers."""
        names = list(servers) if servers is not None else self.server_names()
        return all(self.databases[name].testable.has_committed(txn_id)
                   for name in names)

    def committed_anywhere(self, txn_id: str) -> List[str]:
        """Names of servers on which ``txn_id`` is recorded as committed."""
        return [name for name in self.server_names()
                if self.databases[name].testable.has_committed(txn_id)]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<ReplicatedDatabaseCluster {self.technique} "
                f"servers={len(self.replicas)}>")
