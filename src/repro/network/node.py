"""The physical machine hosting one database server.

A :class:`Node` bundles everything that crashes together (Sect. 2.4 of the
paper: the database component, the group-communication component and the
replication logic of one server all reside in the same process and therefore
fail together):

* a set of CPUs and disks modelled as FIFO :class:`~repro.sim.resources.Resource`s,
* a network endpoint (the inbox used by the LAN),
* a registry of *volatile* simulated processes, all killed on crash,
* a registry of *stable storage* objects that survive crashes,
* crash / recovery state with listeners (failure detectors, experiments).

The paper's Table 4 gives each server 2 CPUs and 2 disks; those are the
defaults here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from ..core.layers import implements
from ..sim.engine import Simulator
from ..sim.process import Process
from ..sim.resources import Resource, Store

#: Listener signature: listener(node, event) with event in {"crash", "recover"}.
NodeListener = Callable[["Node", str], None]


@implements("links")
class Node:
    """One machine on the simulated LAN."""

    def __init__(self, sim: Simulator, name: str, cpus: int = 2, disks: int = 2,
                 cpu_time_per_io: float = 0.4,
                 cpu_time_per_network_op: float = 0.07) -> None:
        if cpus < 1 or disks < 1:
            raise ValueError("a node needs at least one CPU and one disk")
        self.sim = sim
        self.name = name
        self.cpu = Resource(sim, capacity=cpus, name=f"{name}.cpu")
        self.disk = Resource(sim, capacity=disks, name=f"{name}.disk")
        self.cpu_time_per_io = cpu_time_per_io
        self.cpu_time_per_network_op = cpu_time_per_network_op
        #: Gray-failure baseline: :meth:`degrade_cpu` scales the two CPU-cost
        #: attributes from these captured values, :meth:`restore_cpu` puts
        #: them back.
        self._base_cpu_time_per_io = cpu_time_per_io
        self._base_cpu_time_per_network_op = cpu_time_per_network_op
        self.inbox = Store(sim, name=f"{name}.inbox")
        self._crashed = False
        self._processes: List[Process] = []
        self._prune_at = 64
        self._stable: Dict[str, Any] = {}
        self._listeners: List[NodeListener] = []
        #: Number of times this node has crashed (incarnation counter).
        self.crash_count = 0
        #: Simulated times of crashes and recoveries, for the experiment audit.
        self.crash_times: List[float] = []
        self.recovery_times: List[float] = []

    # -- status ---------------------------------------------------------------
    @property
    def is_up(self) -> bool:
        """True while the node has not crashed (or has recovered)."""
        return not self._crashed

    @property
    def is_crashed(self) -> bool:
        """True while the node is down."""
        return self._crashed

    # -- process hosting --------------------------------------------------------
    def spawn(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a volatile process on this node.

        The process is killed if the node crashes.  Crashed nodes refuse to
        start new processes, which catches model bugs where a dead server
        keeps doing work.
        """
        if self._crashed:
            raise RuntimeError(f"cannot spawn on crashed node {self.name!r}")
        process = self.sim.spawn(generator, name=f"{self.name}:{name or 'proc'}")
        self._processes.append(process)
        self._prune_finished()
        return process

    def serve(self, store: Store, handler: Callable[[Any], None]) -> None:
        """Serve ``store`` on this node: one network operation of CPU per
        item (:meth:`~repro.sim.resources.Store.serve`), then ``handler``.

        The cost is read when each charge starts, so :meth:`degrade_cpu`
        slows messages too.  Like :meth:`spawn`, refused on a crashed node.
        Serving ends when the store is cleared: the inbox by :meth:`crash`,
        any other store by its owner's crash listener.
        """
        if self._crashed:
            raise RuntimeError(f"cannot serve on crashed node {self.name!r}")
        store.serve(self.cpu, self._network_op_cost, handler)

    def _network_op_cost(self) -> float:
        return self.cpu_time_per_network_op

    def _prune_finished(self) -> None:
        # Doubling threshold: pruning on a fixed bound made every spawn scan
        # the whole registry once more than ~64 processes stayed alive.
        if len(self._processes) > self._prune_at:
            self._processes = [p for p in self._processes if p.is_alive]
            self._prune_at = max(64, 2 * len(self._processes))

    # -- stable storage registry -------------------------------------------------
    def register_stable(self, key: str, obj: Any) -> Any:
        """Register ``obj`` as surviving crashes under ``key`` and return it."""
        self._stable[key] = obj
        return obj

    def stable(self, key: str) -> Any:
        """Return the stable object registered under ``key``."""
        return self._stable[key]

    def stable_keys(self) -> List[str]:
        """Names of all registered stable-storage objects."""
        return list(self._stable)

    # -- gray failures ---------------------------------------------------------------
    def degrade_cpu(self, factor: float) -> None:
        """Multiply the per-operation CPU costs by ``factor``.

        Models a slow-but-alive machine (thermal throttling, a noisy
        neighbour): the node keeps answering, just late.  Costs are read at
        use time, so ongoing workloads pick the change up immediately.
        """
        if factor < 1.0:
            raise ValueError("a degradation factor must be >= 1")
        self.cpu_time_per_io = self._base_cpu_time_per_io * factor
        self.cpu_time_per_network_op = self._base_cpu_time_per_network_op * factor

    def restore_cpu(self) -> None:
        """End a :meth:`degrade_cpu` episode."""
        self.cpu_time_per_io = self._base_cpu_time_per_io
        self.cpu_time_per_network_op = self._base_cpu_time_per_network_op

    # -- crash / recovery ------------------------------------------------------------
    def add_listener(self, listener: NodeListener) -> None:
        """Subscribe to crash / recovery notifications."""
        self._listeners.append(listener)

    def crash(self, cause: object = "crash") -> None:
        """Crash the node: kill volatile processes, drop queued work.

        Stable-storage objects registered via :meth:`register_stable` are kept
        untouched; everything else (inbox, resource queues, running processes)
        is lost, exactly as in the paper's failure model.
        """
        if self._crashed:
            return
        self._crashed = True
        self.crash_count += 1
        self.crash_times.append(self.sim.now)
        # Resources first: a killed process hands its charge back, which
        # would grant the slot to the next process about to be killed.
        queued = self.cpu.cancel_all() + self.disk.cancel_all()
        for process in self._processes:
            process.kill(cause=f"{self.name}:{cause}")
        # A queued charge has no completion entry on the heap.  Killing this
        # node's processes detached their waiters; a charge that still has
        # one belongs to a process hosted elsewhere (a migration's chunk copy
        # reading this disk), which must see the crash, not wait forever.
        for request in queued:
            if request.callbacks:
                self.sim._schedule(request)
        self._processes.clear()
        self._prune_at = 64
        self.inbox.clear()
        for listener in list(self._listeners):
            listener(self, "crash")

    def recover(self) -> None:
        """Mark the node as up again.

        The node itself only flips its state and notifies listeners; the
        *application-level* recovery (database redo, group-communication state
        transfer or message replay) is driven by the replica server built on
        top of the node, because what recovery means depends on the
        replication technique — that distinction is the heart of the paper.
        """
        if not self._crashed:
            return
        self._crashed = False
        self.recovery_times.append(self.sim.now)
        for listener in list(self._listeners):
            listener(self, "recover")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "crashed" if self._crashed else "up"
        return f"<Node {self.name!r} {state}>"
