#!/usr/bin/env python3
"""Compare the total-order broadcast engines under the same workload.

The replication techniques never name an ordering protocol; the engine is a
parameter (``SimulationParameters.broadcast_engine``).  This example runs
the identical 30-transaction workload over every engine twice —
once undisturbed, once crashing the initial coordinator/leader mid-run —
and prints committed counts, mean response time and message cost side by
side.  Both names run one ordering engine under two leader policies (the
view's primary, or Omega from the failure detector), so on a quiet LAN they
commit the same transactions with the same message bill; under leader loss
the sequencer changes with the view, and Multi-Paxos's leader with the
detector.

Run it with::

    python examples/engine_comparison.py
"""

from __future__ import annotations

from repro.experiments import format_table
from repro.gcs.engines import ENGINES
from repro.replication import ReplicatedDatabaseCluster
from repro.workload import SimulationParameters

TECHNIQUE = "group-safe"
TRANSACTIONS = 30
CRASH_AT, RECOVER_AT, END_AT = 300.0, 450.0, 3_000.0


def run_cell(engine: str, crash_leader: bool, seed: int = 7):
    """One engine x {steady, leader-crash} cell of the comparison."""
    params = SimulationParameters.small(server_count=3, item_count=200) \
        .with_overrides(broadcast_engine=engine)
    cluster = ReplicatedDatabaseCluster(TECHNIQUE, params=params, seed=seed)
    cluster.start()
    servers = cluster.server_names()
    waiters = []

    def driver():
        for index in range(TRANSACTIONS):
            program = cluster.workload.next_program(client=f"c{index}")
            delegate = servers[index % len(servers)]
            if cluster.nodes[delegate].is_crashed:
                delegate = cluster.up_servers()[0]
            waiters.append(cluster.submit(program, server=delegate))
            yield cluster.sim.timeout(40.0)

    cluster.sim.spawn(driver())
    if crash_leader:
        cluster.run(until=CRASH_AT)
        cluster.crash_server(servers[0])
        cluster.run(until=RECOVER_AT)
        cluster.recover_server(servers[0])
    cluster.run(until=END_AT)

    results = [waiter.value for waiter in waiters if waiter.triggered]
    committed = [result for result in results if result.committed]
    mean_rt = (sum(result.response_time for result in committed)
               / len(committed)) if committed else 0.0
    return (len(committed), len(results), f"{mean_rt:.1f} ms",
            cluster.lan.sent_count)


def main() -> None:
    print(f"Broadcast-engine comparison — {TECHNIQUE}, "
          f"{TRANSACTIONS} transactions, 3 servers\n")
    rows = []
    for engine, (_engine_class, description) in ENGINES.items():
        for crash_leader in (False, True):
            committed, responded, mean_rt, sent = run_cell(engine,
                                                           crash_leader)
            rows.append((engine,
                         "leader crash+recover" if crash_leader else "steady",
                         f"{committed}/{responded}", mean_rt, sent))
        print(f"  {engine}: {description}")
    print()
    print(format_table(
        ("engine", "scenario", "committed/responded", "mean response",
         "LAN messages"),
        rows))
    print("\nSame techniques, same workload, same seed — only the leader"
          "\npolicy differs.  Select an engine with"
          "\nSimulationParameters.broadcast_engine or the CLIs' --engine.")


if __name__ == "__main__":
    main()
