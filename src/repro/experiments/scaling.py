"""The Sect. 7 scaling experiment: lazy vs group-safe as the group grows.

Two complementary pieces of evidence are produced:

* the **analytic curves** from :mod:`repro.core.reliability` — the
  probability of an ACID violation per propagation window / failure epoch as
  a function of the number of servers (growing for lazy replication,
  shrinking for group-safe replication);
* a **simulation-backed divergence check**: a small cluster of each kind is
  driven with deliberately conflicting update transactions submitted
  concurrently at different servers; the lazy cluster is allowed to diverge
  (no conflict handling), the group-safe cluster must stay consistent because
  certification aborts one of the conflicting transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.audit import SafetyAudit
from ..core.reliability import ScalingPoint, scaling_comparison
from ..db.operations import Operation, OperationType, TransactionProgram
from ..replication.cluster import ReplicatedDatabaseCluster
from ..workload.params import SimulationParameters
from .plans import ALL_SERVERS, WORKLOAD, Plan, PlanDriver


#: Every processing stage stays frozen while the conflicting pairs execute
#: their read phases (the first 200 ms), so that both members of every pair
#: observe the same item versions: the conflict is then guaranteed, not a
#: race on disk timings.  (For the lazy techniques the gate only delays the
#: background propagation, which the settling time absorbs.)
CONFLICT_WINDOW_PLAN: Plan = ((0.0, "close-gates", ALL_SERVERS), WORKLOAD,
                              (200.0, "open-gates", ALL_SERVERS))


@dataclass
class DivergenceOutcome:
    """Result of the conflicting-updates experiment on one technique."""

    technique: str
    submitted: int
    committed: int
    aborted: int
    divergent_items: List[str]

    @property
    def diverged(self) -> bool:
        """True if at least one item ended up with different values."""
        return bool(self.divergent_items)


def conflicting_updates_run(technique: str, conflicts: int = 10,
                            seed: int = 3) -> DivergenceOutcome:
    """Submit pairs of conflicting updates at two different servers.

    Each pair writes the same item from two different delegates at the same
    instant.  Lazy replication commits both and converges (or not) by
    last-writer-wins during propagation — divergence and lost updates are
    possible.  Group-safe replication certifies both in the same total order
    and commits both (blind writes are ordered) while keeping every replica
    identical.  The run settles until 5 s of simulated time.
    """
    parameters = SimulationParameters.small(server_count=3, item_count=50)
    cluster = ReplicatedDatabaseCluster(technique, params=parameters, seed=seed)
    cluster.start()
    sim = cluster.sim
    servers = cluster.server_names()[:2]
    driver = PlanDriver(cluster, CONFLICT_WINDOW_PLAN)
    driver.advance()
    waiters = []
    for index in range(conflicts):
        key = f"item-{index % parameters.item_count}"
        for which, server in enumerate(servers):
            program = TransactionProgram(
                operations=(Operation(OperationType.READ, key),
                            Operation(OperationType.WRITE, key,
                                      value=f"{server}-update-{index}")),
                client=f"conflict-{index}-{which}")
            waiters.append(cluster.run_transaction(program, server=server))
    driver.finish()
    sim.run(until=5_000.0)

    results = [waiter.value for waiter in waiters if waiter.triggered]
    committed = sum(1 for result in results if result.committed)
    aborted = sum(1 for result in results if not result.committed)
    audit = SafetyAudit(cluster)
    return DivergenceOutcome(
        technique=technique, submitted=len(waiters), committed=committed,
        aborted=aborted, divergent_items=audit.divergent_items())


def analytic_scaling(server_counts: Sequence[int] = (3, 5, 7, 9, 11, 13, 15)
                     ) -> List[ScalingPoint]:
    """The analytic Sect. 7 curves over the given group sizes."""
    return scaling_comparison(list(server_counts))


def render_scaling(points: Sequence[ScalingPoint]) -> str:
    """Text rendering of the scaling comparison."""
    header = (f"{'servers':>8} | {'lazy ACID-violation':>20} | "
              f"{'group-safe violation':>21} | safer")
    lines = [header, "-" * len(header)]
    for point in points:
        safer = "group-safe" if point.group_safe_wins else "lazy"
        lines.append(f"{point.server_count:>8} | "
                     f"{point.lazy_violation_probability:>20.4%} | "
                     f"{point.group_safe_violation_probability:>21.4%} | "
                     f"{safer}")
    return "\n".join(lines)
