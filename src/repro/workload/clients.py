"""The client model driving a replicated database cluster.

:class:`OpenLoopClientPool` — transactions arrive as a Poisson process with a
configurable system-wide rate, split across the servers by the cluster's
``choose_delegate``.  This is what the Fig. 9 experiment uses, because it
puts the exact offered load of the X axis on the system regardless of the
response times.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..replication.results import TransactionResult
from ..sim.engine import Simulator
from .generator import WorkloadGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..replication.cluster import ReplicatedDatabaseCluster


class OpenLoopClientPool:
    """Poisson arrivals at a fixed system-wide rate (Fig. 9's X axis)."""

    def __init__(self, cluster: "ReplicatedDatabaseCluster", load_tps: float,
                 warmup: float = 0.0) -> None:
        if load_tps <= 0:
            raise ValueError("load must be positive")
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.workload: WorkloadGenerator = cluster.workload
        self.warmup = warmup
        self.load_tps = load_tps
        self._next_client = 0
        #: Results observed by the clients after the warm-up period.
        self.results: List[TransactionResult] = []
        #: Results discarded because they started during warm-up.
        self.warmup_results: List[TransactionResult] = []
        self.submitted_count = 0

    def _record(self, result: TransactionResult, submitted_at: float) -> None:
        if submitted_at >= self.warmup:
            self.results.append(result)
        else:
            self.warmup_results.append(result)

    # -- derived statistics -------------------------------------------------------
    @property
    def committed(self) -> List[TransactionResult]:
        """Committed results observed after warm-up."""
        return [result for result in self.results if result.committed]

    @property
    def aborted(self) -> List[TransactionResult]:
        """Aborted results observed after warm-up."""
        return [result for result in self.results if not result.committed]

    def mean_response_time(self) -> float:
        """Mean response time (ms) of committed transactions after warm-up."""
        committed = self.committed
        if not committed:
            return 0.0
        return sum(result.response_time for result in committed) / len(committed)

    def abort_rate(self) -> float:
        """Fraction of post-warm-up transactions that aborted."""
        total = len(self.results)
        return len(self.aborted) / total if total else 0.0

    def start(self) -> None:
        """Start the arrival process."""
        self.sim.spawn(self._arrivals(), name="clients.open_loop")

    def _arrivals(self):
        while True:
            gap = self.workload.interarrival_time(self.load_tps)
            yield self.sim.timeout(gap)
            client_index = self._next_client
            self._next_client += 1
            if not self.cluster.up_servers():
                continue
            delegate = self.cluster.choose_delegate(client_index)
            program = self.workload.next_program(client=f"client-{client_index}")
            self.sim.spawn(self._one_transaction(program, delegate),
                           name=f"client.txn.{program.program_id}")

    def _one_transaction(self, program, delegate):
        submitted_at = self.sim.now
        self.submitted_count += 1
        result = yield self.cluster.submit(program, server=delegate)
        self._record(result, submitted_at)
