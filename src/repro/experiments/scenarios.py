"""Failure-injection scenarios (Fig. 5, Fig. 7 and the Table 2/3 patterns).

Every scenario follows the same script, parameterised by the replication
technique and the crash pattern:

1. build a small cluster (3 servers by default, ``s1`` is the delegate);
2. optionally freeze the *processing* stage of the non-delegate servers by
   closing their processing gate — this creates the delivered-but-not-
   processed window at the heart of the paper's Fig. 5 argument;
3. submit one update transaction to the delegate and wait until the client is
   notified of the commit;
4. crash the servers of the chosen pattern;
5. re-open the gates, recover the chosen servers and let their recovery
   procedures (redo, state transfer or message replay) finish;
6. audit the cluster: is the confirmed transaction still (or again) part of
   the replicated database, or was it lost?

The outcome of the audit is what Tables 2 and 3 and the Fig. 5/7 comparison
are about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.durability import TransactionFate, transaction_fate
from ..replication.cluster import ReplicatedDatabaseCluster
from ..replication.results import TransactionResult
from ..workload.params import SimulationParameters


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


#: Named crash patterns used by the Table 2 / Table 3 experiments.  Each maps
#: to (servers to crash, servers to recover afterwards).
CRASH_PATTERNS: Dict[str, Dict[str, Sequence[str]]] = {
    "none": {"crash": (), "recover": ()},
    "delegate": {"crash": ("s1",), "recover": ()},
    "minority": {"crash": ("s3",), "recover": ()},
    "group-fails-delegate-up": {"crash": ("s2", "s3"), "recover": ("s2", "s3")},
    "all-delegate-stays-down": {"crash": ("s1", "s2", "s3"),
                                "recover": ("s2", "s3")},
    "all-recover-all": {"crash": ("s1", "s2", "s3"),
                        "recover": ("s2", "s3", "s1")},
}


def run_crash_scenario(technique: str, crash_pattern: str = "all-delegate-stays-down",
                       seed: int = 1,
                       params: Optional[SimulationParameters] = None,
                       freeze_non_delegates: bool = True,
                       settle_time: float = 2_000.0) -> ScenarioOutcome:
    """Run one failure-injection scenario and return its audited outcome.

    ``freeze_non_delegates`` closes the processing gate of every server except
    the delegate before the transaction is submitted, so that those servers
    crash *after delivering* the transaction's message but *before processing
    it* — the exact window of Fig. 5.  Set it to False for patterns where the
    survivors are supposed to have processed the transaction normally.
    """
    if crash_pattern not in CRASH_PATTERNS:
        raise ValueError(f"unknown crash pattern {crash_pattern!r}; "
                         f"expected one of {sorted(CRASH_PATTERNS)}")
    pattern = CRASH_PATTERNS[crash_pattern]
    parameters = params or SimulationParameters.small(server_count=3,
                                                      item_count=100)
    cluster = ReplicatedDatabaseCluster(technique, params=parameters, seed=seed)
    cluster.start()
    sim = cluster.sim
    delegate = "s1"

    if freeze_non_delegates:
        for name in cluster.server_names():
            if name != delegate:
                cluster.replica(name).processing_gate.close()

    # One deterministic update-only transaction on the delegate.
    program = cluster.workload.update_only_program(write_count=3,
                                                   client="scenario")
    waiter = cluster.run_transaction(program, server=delegate)
    response: TransactionResult = sim.run_until_complete(
        waiter, limit=sim.now + settle_time)
    txn_id = response.txn_id

    # Give the survivors a short moment so that in-flight deliveries land
    # (they stay frozen *before processing* if the gates are closed), but stay
    # well below the lazy propagation interval so that crashing the delegate
    # still happens before anything left it.
    sim.run(until=sim.now + 10.0)

    crashed = list(pattern["crash"])
    for name in crashed:
        cluster.crash_server(name)
    sim.run(until=sim.now + 5.0)

    # Re-open the gates so that recovered servers can process replays.
    for name in cluster.server_names():
        cluster.replica(name).processing_gate.open()

    recovered = list(pattern["recover"])
    for name in recovered:
        cluster.recover_server(name)
        sim.run(until=sim.now + 50.0)
    sim.run(until=sim.now + settle_time)

    fate = transaction_fate(cluster, txn_id,
                            confirmed_to_client=response.committed)
    return ScenarioOutcome(
        technique=technique, crash_pattern=crash_pattern, txn_id=txn_id,
        confirmed=response.committed, response=response, fate=fate,
        committed_on=cluster.committed_anywhere(txn_id),
        recovered_servers=recovered, crashed_servers=crashed,
        group_failed=len(crashed) > len(cluster.server_names()) // 2,
        delegate_crashed=delegate in crashed and delegate not in recovered)


def figure5_scenario(seed: int = 1,
                     params: Optional[SimulationParameters] = None
                     ) -> ScenarioOutcome:
    """The unrecoverable-failure scenario of Fig. 5 (classical atomic broadcast).

    Group-1-safe replication on classical atomic broadcast: the delegate
    commits and confirms, every server delivers the message, then all servers
    crash; only the non-delegates recover.  The transaction is lost.
    """
    return run_crash_scenario("group-1-safe",
                              crash_pattern="all-delegate-stays-down",
                              seed=seed, params=params,
                              freeze_non_delegates=True)


def figure7_scenario(seed: int = 1,
                     params: Optional[SimulationParameters] = None
                     ) -> ScenarioOutcome:
    """The recovery scenario of Fig. 7 (end-to-end atomic broadcast).

    Same crash schedule as Fig. 5, but the technique runs on end-to-end
    atomic broadcast (2-safe): after recovery the unacknowledged message is
    replayed, processed and committed — the transaction survives.
    """
    return run_crash_scenario("2-safe",
                              crash_pattern="all-delegate-stays-down",
                              seed=seed, params=params,
                              freeze_non_delegates=True)


def single_crash_scenario(technique: str, seed: int = 1,
                          params: Optional[SimulationParameters] = None
                          ) -> ScenarioOutcome:
    """Crash only the delegate right after it confirmed the transaction.

    This is the pattern that separates the 0/1-safe levels (which tolerate no
    crash at all) from the group-based levels (Table 2, first row vs second).
    For the lazy techniques the crash happens before the propagation interval
    elapses, so nothing has left the delegate yet.
    """
    return run_crash_scenario(technique, crash_pattern="delegate", seed=seed,
                              params=params, freeze_non_delegates=False)
