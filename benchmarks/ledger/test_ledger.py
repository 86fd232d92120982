"""Tier-1 checks of the perf ledger itself (collected by the repo's pytest run).

The ledger's numbers gate later PRs, so its three load-bearing pieces are
tested here: the smoke mode really produces every declared workload and
metric, the determinism assertion really trips, and the min-of-passes
estimator really ignores a burst.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import estimate  # noqa: E402
import run  # noqa: E402


def test_smoke_produces_every_declared_workload_and_metric():
    contract = run.load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    result = run.run_ledger(names, seed=101, smoke=True, rounds=2,
                            seconds=None, trace=True)
    run.check_names(contract, result, trace=True)   # exact names, all finite
    assert result["failures"] == []
    assert list(result["workloads"]) == names
    for summary in result["workloads"].values():
        assert summary["passes"] == 2 and summary["cells"] == 1
        for kind in ("end_to_end", "per_layer"):
            declared = {metric["name"] for metric in contract[kind]}
            assert set(summary[kind]) == declared
            assert all(math.isfinite(value)
                       for value in summary[kind].values())
        # End-to-end metrics carry relative bounds, so none may be zero.
        assert all(value > 0 for value in summary["end_to_end"].values())
        line = run.driver_line(contract, summary, trace=False, correct=True)
        assert '"failed": 0' in line and '"correct": true' in line


def test_determinism_assertion_trips_on_a_tampered_event_count():
    honest = run.run_pass("paper_lazy_1safe", seed=7, smoke=True, audit=True)
    estimate.assert_same_work([honest, copy.deepcopy(honest)])
    tampered = copy.deepcopy(honest)
    tampered["cells"][0]["events"] += 1
    with pytest.raises(estimate.DeterminismError, match="events differs"):
        estimate.assert_same_work([honest, tampered])
    summary = run.summarize("paper_lazy_1safe", [honest, tampered],
                            smoke=True)
    assert any(text.startswith("determinism:")
               for text in summary["failures"])


def test_min_of_passes_ignores_a_burst_over_two_of_four_passes():
    clean = [1.0, 2.0, 0.5]
    burst = [1.6 * piece for piece in clean]
    quiet_four = [clean, clean, clean, clean]
    bursty_four = [clean, burst, burst, clean]
    assert estimate.kth_smallest_sum(bursty_four) == \
        estimate.kth_smallest_sum(quiet_four) == pytest.approx(3.5)
    assert estimate.host_noise(bursty_four) == pytest.approx(0.0)
    # A burst that hits every pass, but a different piece each time, moves a
    # per-pass minimum and leaves the per-piece minimum alone.
    staggered = [[1.6, 2.0, 0.5], [1.0, 3.2, 0.5], [1.0, 2.0, 0.8]]
    assert min(sum(row) for row in staggered) > 3.5
    assert estimate.kth_smallest_sum(staggered) == pytest.approx(3.5)
    assert estimate.host_noise(staggered) == pytest.approx(0.0)
    assert estimate.host_noise([clean, burst]) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        estimate.kth_smallest_sum([[1.0, 2.0], [1.0]])
