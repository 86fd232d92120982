"""Property-style audit backing of both failure matrices.

The property: **every matrix cell predicted "No Transaction Loss" is backed
by a per-key audit with zero lost or duplicated commits** — for the
single-group matrix of :mod:`repro.experiments.failure_matrix` and for the
partitioned matrix of :mod:`repro.experiments.partition_failure_matrix`.
The prediction side is derived from the criterion definitions
(:func:`repro.core.matrix.loss_condition` and its per-shard composition);
these tests pin the audit side to it cell by cell.

Also here: the one parallel story, ``harness.run_cells`` over independent
cells (``--workers N``) — the pooled matrix must equal the serial one.
And the command lines start clean under ``-W error::RuntimeWarning``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.audit import FindingKind
from repro.core.matrix import loss_condition, partitioned_loss_condition
from repro.core.safety import SafetyLevel
from repro.experiments import (failure_matrix, netsplit_matrix,
                               partition_failure_matrix, run_failure_matrix,
                               run_partitioned_failure_matrix)


@pytest.fixture(scope="module")
def single_entries():
    return run_failure_matrix(seed=2)


@pytest.fixture(scope="module")
def partitioned_entries():
    return run_partitioned_failure_matrix(
        techniques=["1-safe", "group-safe", "2-safe"], seed=2)


# ------------------------------------------------------------- the composition
def test_partitioned_loss_condition_is_the_per_shard_disjunction():
    level = SafetyLevel.GROUP_SAFE
    assert not partitioned_loss_condition([])
    assert not partitioned_loss_condition([(level, False, False),
                                           (level, False, True)])
    assert partitioned_loss_condition([(level, False, False),
                                       (level, True, False)])
    # Mixed levels: each branch is judged by its own criterion.
    assert partitioned_loss_condition(
        [(SafetyLevel.TWO_SAFE, True, True),
         (SafetyLevel.ONE_SAFE, False, True)])
    for group_fails in (False, True):
        for delegate_crashes in (False, True):
            assert (partitioned_loss_condition(
                        [(level, group_fails, delegate_crashes)])
                    == loss_condition(level, group_fails, delegate_crashes))


# ------------------------------------------------------------- single group
def test_single_matrix_predicted_safe_cells_keep_the_transaction(
        single_entries):
    checked = 0
    for entry in single_entries:
        if entry.predicted_possible_loss:
            continue
        checked += 1
        assert not entry.observed_loss, (entry.technique, entry.crash_pattern)
        fate = entry.outcome.fate
        assert not fate.is_lost
        # The audit's positive evidence: some surviving server holds (or
        # will regain) the confirmed transaction.
        reachable = (set(fate.committed_on) | set(fate.durably_logged_on)
                     | set(fate.recoverable_from_gcs_log_on)
                     | set(fate.pending_delivery_on))
        assert reachable & set(fate.surviving_servers), \
            (entry.technique, entry.crash_pattern)
    assert checked > 0


def test_single_matrix_commit_evidence_is_consistent(single_entries):
    # No cell reports a commit on a server outside the cluster — the
    # single-group analogue of "no duplicated commit".
    for entry in single_entries:
        servers = {"s1", "s2", "s3"}
        assert set(entry.outcome.committed_on) <= servers


# ------------------------------------------------------------- partitioned
def test_partitioned_predicted_safe_cells_have_clean_audits(
        partitioned_entries):
    checked = 0
    for entry in partitioned_entries:
        if entry.predicted_possible_loss:
            continue
        checked += 1
        assert not entry.observed_loss, (entry.technique, entry.crash_pattern)
        assert entry.outcome.findings == [], \
            (entry.technique, entry.crash_pattern)
    assert checked > 0


def test_partitioned_no_cell_ever_duplicates_a_commit(partitioned_entries):
    # Even the losing cells must never commit one client transaction on two
    # groups — dual-written values are internal migration transactions.
    for entry in partitioned_entries:
        assert not any(finding.kind is FindingKind.DUPLICATED
                       for finding in entry.outcome.findings), \
            (entry.technique, entry.crash_pattern)
        assert entry.outcome.invariants_ok


def test_partitioned_predictions_match_the_composition(partitioned_entries):
    for entry in partitioned_entries:
        recomputed = entry.outcome.confirmed and partitioned_loss_condition(
            (entry.level, status.group_failed, status.delegate_crashed)
            for status in entry.outcome.audited_shards)
        assert entry.predicted_possible_loss == recomputed


# ------------------------------------------------------------- worker pool
@pytest.mark.parametrize("run, render, kwargs", [
    (failure_matrix.run_failure_matrix, failure_matrix.render_matrix,
     dict(techniques=["1-safe"])),
    (partition_failure_matrix.run_partitioned_failure_matrix,
     partition_failure_matrix.render_partitioned_matrix,
     dict(techniques=["1-safe"], patterns=["none", "shard-delegate"])),
    (netsplit_matrix.run_netsplit_matrix,
     netsplit_matrix.render_netsplit_matrix,
     dict(engines=["multi-paxos"], patterns=["split-minority-follower"],
          detectors=["perfect", "hb-fast"], include_partitioned=False)),
], ids=["single-group", "partitioned", "netsplit"])
def test_matrix_worker_pool_matches_serial_run(run, render, kwargs):
    """Pool.map returns cells in submission order, so the pooled matrix and
    its rendered report must match the serial run verdict for verdict —
    for every matrix, since all three fan out through the one harness pool.
    (Transaction *ids* are process-history dependent — the module-global
    program counter — so the comparison is on verdicts and the report, which
    is what the matrix publishes.)"""
    serial = run(seed=3, **kwargs)
    pooled = run(seed=3, workers=2, **kwargs)
    assert len(serial) >= 2
    assert render(pooled) == render(serial)
    assert ([(entry.sound, entry.demonstrated) for entry in pooled] ==
            [(entry.sound, entry.demonstrated) for entry in serial])


def test_matrix_worker_pool_with_no_cells_returns_no_entries():
    """An empty selection is an empty matrix at any worker count: a pool of
    ``min(workers, 0)`` processes cannot be built."""
    assert netsplit_matrix.run_netsplit_matrix(
        patterns=[], include_partitioned=False, seed=3) == []
    assert netsplit_matrix.run_netsplit_matrix(
        patterns=[], include_partitioned=False, seed=3, workers=2) == []


# ------------------------------------------------------------- the command lines
def _run_module(module, *args):
    """``python -W error::RuntimeWarning -m repro.experiments.<module>``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         f"repro.experiments.{module}", *args],
        env=env, capture_output=True, text=True, timeout=120)


def test_matrix_cli_runs_as_a_module_without_a_runpy_warning(tmp_path):
    """The package re-exports its command-line modules lazily, so runpy
    finds ``failure_matrix`` unimported and raises no RuntimeWarning."""
    completed = _run_module("failure_matrix", "--smoke",
                            "--report-dir", str(tmp_path))
    assert completed.returncode == 0, completed.stderr
    assert (tmp_path / "failure_matrix_smoke.txt").exists()


@pytest.mark.parametrize("module", ["partition_failure_matrix",
                                    "netsplit_matrix", "partition_scaling"])
def test_every_experiment_cli_starts_without_a_runpy_warning(module):
    completed = _run_module(module, "--help")
    assert completed.returncode == 0, completed.stderr
