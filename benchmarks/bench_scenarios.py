"""Benchmarks regenerating the Fig. 5 / Fig. 7 scenarios and the failure matrix
(experiments E1, E2 and the measured side of E4/E5)."""

from __future__ import annotations

from repro.experiments import (crash_tolerance_summary, demonstrated,
                               figure5_scenario, figure7_scenario,
                               run_failure_matrix, violations)

from conftest import write_report


def test_fig5_lost_transaction(benchmark):
    """Fig. 5: classical atomic broadcast loses a confirmed transaction."""
    outcome = benchmark.pedantic(figure5_scenario, rounds=1, iterations=1)
    assert outcome.confirmed
    assert outcome.transaction_lost
    assert outcome.committed_on == ["s1"]
    write_report("fig5_scenario", (
        "Fig. 5 — unrecoverable failure with classical atomic broadcast\n"
        f"technique          : {outcome.technique}\n"
        f"client confirmed   : {outcome.confirmed}\n"
        f"servers crashed    : {outcome.crashed_servers}\n"
        f"servers recovered  : {outcome.recovered_servers}\n"
        f"committed on       : {outcome.committed_on}\n"
        f"transaction lost   : {outcome.transaction_lost}  (paper: lost)"))


def test_fig7_recovered_transaction(benchmark):
    """Fig. 7: end-to-end atomic broadcast replays and recovers it."""
    outcome = benchmark.pedantic(figure7_scenario, rounds=1, iterations=1)
    assert outcome.confirmed
    assert not outcome.transaction_lost
    assert set(outcome.committed_on) >= {"s2", "s3"}
    write_report("fig7_scenario", (
        "Fig. 7 — recovery with end-to-end atomic broadcast\n"
        f"technique          : {outcome.technique}\n"
        f"client confirmed   : {outcome.confirmed}\n"
        f"servers crashed    : {outcome.crashed_servers}\n"
        f"servers recovered  : {outcome.recovered_servers}\n"
        f"committed on       : {outcome.committed_on}\n"
        f"transaction lost   : {outcome.transaction_lost}  (paper: recovered)"))


def test_failure_matrix_tables_2_and_3(benchmark):
    """Measured counterpart of Tables 2/3: inject crashes, audit the losses."""
    entries = benchmark.pedantic(run_failure_matrix, rounds=1, iterations=1)
    assert violations(entries) == []
    losing = {(entry.technique, entry.crash_pattern)
              for entry in demonstrated(entries)}
    assert ("1-safe", "delegate") in losing
    assert ("group-safe", "all-delegate-stays-down") in losing
    # Table 3's group-fails / delegate-recovers column.
    assert ("group-safe", "all-recover-all") in losing
    assert ("group-1-safe", "all-recover-all") not in losing
    assert not any(technique == "2-safe" for technique, _pattern in losing)
    tolerance = crash_tolerance_summary(entries)
    assert tolerance["2-safe"] == 3
