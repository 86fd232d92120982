"""Failure-injection scenarios (Fig. 5, Fig. 7 and the Table 2/3 patterns).

Every scenario is one workload run against the crash plan of a pattern
(:data:`CRASH_PLANS`, applied by :class:`~repro.experiments.plans.PlanDriver`)
on a small cluster (3 servers by default, ``s1`` is the delegate):

1. optionally (:data:`FREEZE`) close the processing gate of the non-delegate
   servers — the delivered-but-not-processed window at the heart of the
   paper's Fig. 5 argument;
2. the workload: submit one update transaction to the delegate and wait
   until the client is notified of the commit;
3. the plan: crash the pattern's servers, re-open the gates, recover the
   pattern's servers and let their recovery procedures (redo, state
   transfer or message replay) finish;
4. audit the cluster: is the confirmed transaction still (or again) part of
   the replicated database, or was it lost?

The outcome of the audit is what Tables 2 and 3 and the Fig. 5/7 comparison
are about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.durability import TransactionFate, transaction_fate
from ..replication.cluster import ReplicatedDatabaseCluster
from ..replication.results import TransactionResult
from ..workload.params import SimulationParameters
from .harness import small_parameters
from .plans import (ALL_SERVERS, DELEGATE, NON_DELEGATES, WORKLOAD, Plan,
                    PlanDriver, Step, plan_entry)


@dataclass
class ScenarioOutcome:
    """Everything a failure scenario produced, ready for auditing."""

    technique: str
    crash_pattern: str
    txn_id: str
    confirmed: bool
    response: Optional[TransactionResult]
    fate: TransactionFate
    committed_on: List[str] = field(default_factory=list)
    recovered_servers: List[str] = field(default_factory=list)
    crashed_servers: List[str] = field(default_factory=list)
    group_failed: bool = False
    delegate_crashed: bool = False

    @property
    def transaction_lost(self) -> bool:
        """True if the confirmed transaction is gone from every up server."""
        return self.fate.is_lost


#: Simulated time a scenario waits for the response, and again after the
#: recoveries, for replays and catch-up to land.
SETTLE_TIME_MS = 2_000.0
SETTLE: Step = (SETTLE_TIME_MS, "wait", None)

#: Closes the processing gate of every server but the delegate before the
#: transaction is submitted, so that those servers crash *after delivering*
#: its message but *before processing it* — Fig. 5's window.
FREEZE: Plan = ((0.0, "close-gates", NON_DELEGATES),)
#: The matrix patterns that crash in that window (the others crash after
#: the survivors processed the transaction).
FROZEN = ("all-delegate-stays-down", "all-recover-all")


def _crash_plan(verb: str, target, *recoveries) -> Plan:
    """Confirm; crash 10 ms later; re-open every gate; recover; settle.

    The 10 ms let in-flight deliveries land (frozen *before processing* if
    the gates are closed) while staying well below the lazy propagation
    interval, so a crashed delegate still crashes before anything left it.
    Recovered servers process the replays through the re-opened gates.
    """
    return ((WORKLOAD, (10.0, verb, target), (5.0, "open-gates", ALL_SERVERS))
            + tuple((0.0, "recover", (servers, 50.0))
                    for servers in recoveries)
            + (SETTLE,))


#: The crash plans of the Table 2 / Table 3 experiments, by pattern name.
CRASH_PLANS: Dict[str, Plan] = {
    "none": _crash_plan("wait", None),
    "delegate": _crash_plan("crash", DELEGATE),
    "minority": _crash_plan("crash", ("s3",)),
    "group-fails-delegate-up": _crash_plan("crash", NON_DELEGATES,
                                           NON_DELEGATES),
    "all-delegate-stays-down": _crash_plan("crash-group", None,
                                           NON_DELEGATES),
    "all-recover-all": _crash_plan("crash-group", None,
                                   NON_DELEGATES, DELEGATE),
}


def run_crash_scenario(technique: str, crash_pattern: str = "all-delegate-stays-down",
                       seed: int = 1,
                       params: Optional[SimulationParameters] = None,
                       freeze_non_delegates: bool = True) -> ScenarioOutcome:
    """Run one failure-injection scenario and return its audited outcome.

    ``freeze_non_delegates`` prefixes the pattern's plan with
    :data:`FREEZE`.  Set it to False for patterns where the survivors are
    supposed to have processed the transaction normally.
    """
    plan = plan_entry(CRASH_PLANS, crash_pattern, "crash pattern")
    cluster = ReplicatedDatabaseCluster(technique, seed=seed,
                                        params=small_parameters(params))
    cluster.start()
    delegate = "s1"
    driver = PlanDriver(cluster,
                        (FREEZE if freeze_non_delegates else ()) + plan)
    driver.advance()

    # One deterministic update-only transaction on the delegate.
    program = cluster.workload.update_only_program(write_count=3,
                                                   client="scenario")
    waiter = cluster.run_transaction(program, server=delegate)
    response: TransactionResult = cluster.sim.run_until_complete(
        waiter, limit=cluster.sim.now + SETTLE_TIME_MS)
    txn_id = response.txn_id
    driver.finish()

    crashed, recovered = driver.crashed, driver.recovered
    return ScenarioOutcome(
        technique=technique, crash_pattern=crash_pattern, txn_id=txn_id,
        confirmed=response.committed, response=response,
        fate=transaction_fate(cluster, txn_id,
                              confirmed_to_client=response.committed),
        committed_on=cluster.committed_anywhere(txn_id),
        recovered_servers=recovered, crashed_servers=crashed,
        group_failed=len(crashed) > len(cluster.server_names()) // 2,
        delegate_crashed=delegate in crashed and delegate not in recovered)


def figure5_scenario() -> ScenarioOutcome:
    """The unrecoverable-failure scenario of Fig. 5 (classical atomic broadcast).

    Group-1-safe replication on classical atomic broadcast: the delegate
    commits and confirms, every server delivers the message, then all servers
    crash; only the non-delegates recover.  The transaction is lost.
    """
    return run_crash_scenario("group-1-safe",
                              crash_pattern="all-delegate-stays-down",
                              freeze_non_delegates=True)


def figure7_scenario() -> ScenarioOutcome:
    """The recovery scenario of Fig. 7 (end-to-end atomic broadcast).

    Same crash schedule as Fig. 5, but the technique runs on end-to-end
    atomic broadcast (2-safe): after recovery the unacknowledged message is
    replayed, processed and committed — the transaction survives.
    """
    return run_crash_scenario("2-safe",
                              crash_pattern="all-delegate-stays-down",
                              freeze_non_delegates=True)


def single_crash_scenario(technique: str) -> ScenarioOutcome:
    """Crash only the delegate right after it confirmed the transaction.

    This is the pattern that separates the 0/1-safe levels (which tolerate no
    crash at all) from the group-based levels (Table 2, first row vs second).
    For the lazy techniques the crash happens before the propagation interval
    elapses, so nothing has left the delegate yet.
    """
    return run_crash_scenario(technique, crash_pattern="delegate",
                              freeze_non_delegates=False)
