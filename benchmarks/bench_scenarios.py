"""Benchmarks regenerating the Fig. 5 / Fig. 7 scenario reports (experiments
E1 and E2).  The measured side of Tables 2 and 3 (E4/E5) is the failure
matrix CLI, whose full run writes the tracked ``failure_matrix.txt``."""

from __future__ import annotations

from repro.experiments import figure5_scenario, figure7_scenario

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

