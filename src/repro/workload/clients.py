"""The client model driving a replicated database cluster.

:class:`OpenLoopClientPool` — transactions arrive as a Poisson process with a
configurable system-wide rate, split across the servers by the cluster's
``choose_delegate``.  This is what the Fig. 9 experiment uses, because it
puts the exact offered load of the X axis on the system regardless of the
response times.  The pool keeps every answer; a reader picks its
measurement window with
:meth:`~repro.replication.results.RunStatistics.of`.  The partitioned pool,
:class:`~repro.partition.workload.PartitionedOpenLoopClients`, is this pool
with another :meth:`~OpenLoopClientPool._arrive`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..replication.results import TransactionResult
from ..sim.engine import Simulator
from ..sim.events import Event
from .generator import WorkloadGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..replication.cluster import ReplicatedDatabaseCluster


class OpenLoopClientPool:
    """Poisson arrivals at a fixed system-wide rate (Fig. 9's X axis)."""

    def __init__(self, cluster: "ReplicatedDatabaseCluster",
                 load_tps: float) -> None:
        if load_tps <= 0:
            raise ValueError("load must be positive")
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.workload: WorkloadGenerator = cluster.workload
        self.load_tps = load_tps
        self._next_client = 0
        #: Every answer the clients received, in answer order.
        self.results: List[TransactionResult] = []
        self.submitted_count = 0

    def start(self) -> None:
        """Start the arrival process."""
        self.sim.spawn(self._arrivals(), name="clients.open_loop")

    def _arrivals(self):
        while True:
            gap = self.workload.interarrival_time(self.load_tps)
            yield self.sim.timeout(gap)
            client_index = self._next_client
            self._next_client += 1
            self._arrive(client_index)

    def _arrive(self, client_index: int) -> None:
        """Submit the transaction of client ``client_index``, if a server
        takes submissions."""
        if not self.cluster.available_delegates():
            return
        delegate = self.cluster.choose_delegate(client_index)
        program = self.workload.next_program(client=f"client-{client_index}")
        self.submitted_count += 1
        self.cluster.submit(program, server=delegate).add_callback(
            self._answered)

    def _answered(self, response: Event) -> None:
        self.results.append(response.value)
