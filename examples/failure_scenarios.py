#!/usr/bin/env python3
"""Failure scenarios: reproduce Fig. 5 and Fig. 7 and the Table 2/3 matrix.

The example replays the paper's central failure scenario — every server
crashes right after a transaction was confirmed to the client, with the
non-delegate servers caught between *delivering* the transaction's message
and *processing* it — once on classical atomic broadcast (the transaction is
lost, Fig. 5) and once on end-to-end atomic broadcast (it is recovered,
Fig. 7).  It then runs the full failure-injection matrix behind Tables 2
and 3.

Run it with::

    python examples/failure_scenarios.py
"""

from __future__ import annotations

from repro.experiments import (crash_tolerance_summary, figure5_scenario,
                               figure7_scenario, render_matrix,
                               run_failure_matrix, single_crash_scenario,
                               violations)


def describe(outcome) -> None:
    """Print one scenario outcome in a readable way."""
    print(f"  technique           : {outcome.technique}")
    print(f"  crash pattern       : {outcome.crash_pattern}")
    print(f"  client was told     : "
          f"{'committed' if outcome.confirmed else 'aborted'}")
    print(f"  servers crashed     : {', '.join(outcome.crashed_servers) or '—'}")
    print(f"  servers recovered   : {', '.join(outcome.recovered_servers) or '—'}")
    print(f"  committed on        : {', '.join(outcome.committed_on) or 'nobody'}")
    verdict = "TRANSACTION LOST" if outcome.transaction_lost else "transaction safe"
    print(f"  outcome             : {verdict}")


def main() -> None:
    print("=" * 72)
    print("Fig. 5 — group-1-safe replication on CLASSICAL atomic broadcast")
    print("=" * 72)
    describe(figure5_scenario())
    print("\nThe message carrying the transaction was delivered everywhere, but")
    print("delivery guarantees nothing about processing: after the crash no")
    print("component will ever present it again, so the confirmed transaction")
    print("is gone (the paper's Sect. 3 argument).")

    print()
    print("=" * 72)
    print("Fig. 7 — 2-safe replication on END-TO-END atomic broadcast")
    print("=" * 72)
    describe(figure7_scenario())
    print("\nThe group-communication component logged the delivery and replays it")
    print("after recovery; testable transactions make the replay commit exactly")
    print("once — the transaction survives the crash of every server.")

    print()
    print("=" * 72)
    print("A single crash: 1-safe vs group-safe (Table 2, first two rows)")
    print("=" * 72)
    for technique in ("1-safe", "group-safe"):
        print(f"\n-- {technique} --")
        describe(single_crash_scenario(technique))

    print()
    print("=" * 72)
    print("Full failure-injection matrix (measured side of Tables 2 and 3)")
    print("=" * 72)
    entries = run_failure_matrix()
    print(render_matrix(entries))
    broken = violations(entries)
    print(f"\nsoundness violations (losses where the criterion forbids them): "
          f"{len(broken)}")
    print("observed crash tolerance (largest crash count survived):")
    for technique, tolerated in sorted(crash_tolerance_summary(entries).items()):
        print(f"  {technique:>14}: {tolerated} simultaneous crashes")


if __name__ == "__main__":
    main()
