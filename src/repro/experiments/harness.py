"""The one failure-matrix harness: cell → scenario → prediction → verdict → gate.

The three matrices (:mod:`~repro.experiments.failure_matrix`,
:mod:`~repro.experiments.partition_failure_matrix`,
:mod:`~repro.experiments.netsplit_matrix`) ask one question — for a failure
pattern, can a *confirmed* transaction be lost? — so each of them is only its
cell table, its scenario functions and its renderer.  Everything they share
lives here:

* the scenario verbs — :func:`submit_writes`, :func:`confirm`,
  :func:`advance_until`, :func:`probe` — over either cluster facade;
* :func:`run_cells`, the single process-pool fan-out;
* :class:`LossCell`, the entry of the two crash-loss matrices, with the
  :func:`violations` / :func:`demonstrated` pair every matrix is gated on
  (an entry type only needs ``sound`` and ``demonstrated`` properties);
* :func:`matrix_cli`, the CLI / CI gate.

The per-key commit-integrity audit the cells call is
:func:`repro.core.audit.audit_writes`; the derived predictions are
:mod:`repro.core.matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.criteria import TECHNIQUE_SAFETY, safety_of_technique
from ..core.matrix import partitioned_loss_condition
from ..core.safety import SafetyLevel
from ..db.operations import TransactionProgram
from ..gcs.engines import DEFAULT_ENGINE, engine_names
from ..workload.params import SimulationParameters

#: The techniques of both loss matrices, one per safety level, weakest first.
TECHNIQUES = tuple(TECHNIQUE_SAFETY)
#: The reduced set of their ``--smoke`` runs: a lazy technique (loses on a
#: delegate crash), a group-based one (loses on a whole-group failure) and
#: 2-safe (never loses).
SMOKE_TECHNIQUES = ("1-safe", "group-safe", "2-safe")


def small_parameters(params: Optional[SimulationParameters] = None,
                     **overrides) -> SimulationParameters:
    """``params`` (default: the 3-server, 100-item cell cluster) overridden."""
    base = params or SimulationParameters.small(server_count=3, item_count=100)
    return base.with_overrides(**overrides)


# --------------------------------------------------------------------------- scenario verbs
def submit_writes(cluster, values: Mapping[str, object], client: str,
                  **route):
    """Submit the write-only transaction installing ``values``; its waiter.

    ``route`` is passed to the facade's ``run_transaction`` (``server=`` on a
    :class:`~repro.replication.cluster.ReplicatedDatabaseCluster`).
    """
    return cluster.run_transaction(
        TransactionProgram.of_writes(values, client=client), **route)


def confirm(cluster, values: Mapping[str, object], client: str,
            limit_ms: float = 5_000.0, **route):
    """Submit ``values`` and step the simulation until the client is answered.

    Stops at the confirmation event itself (``run_until_complete``), unlike
    the 5 ms-stepped :func:`probe`; raises unless the answer is a commit.
    """
    result = cluster.sim.run_until_complete(
        submit_writes(cluster, values, client, **route),
        limit=cluster.sim.now + limit_ms)
    if not result.committed:
        raise RuntimeError(f"setup transaction {result.txn_id} of {client!r} "
                           f"failed to confirm ({result.abort_reason})")
    return result


def advance_until(cluster, condition: Callable[[], bool], limit: float,
                  step: float = 5.0) -> bool:
    """Advance the simulation until ``condition()`` (False if ``limit`` hit)."""
    while not condition():
        if cluster.sim.now >= limit:
            return False
        cluster.run(until=min(limit, cluster.sim.now + step))
    return True


def probe(cluster, values: Mapping[str, object], client: str,
          limit_ms: float = 5_000.0, **route):
    """Submit ``values`` and wait up to ``limit_ms``: the answer, else None."""
    waiter = submit_writes(cluster, values, client, **route)
    answered = advance_until(cluster, lambda: waiter.triggered,
                             limit=cluster.sim.now + limit_ms)
    return waiter.value if answered else None


# --------------------------------------------------------------------------- cells
def run_cells(cell_fn: Callable, cells: Iterable, workers: int = 1) -> List:
    """Run every cell, each an independent simulation, in submission order.

    With ``workers > 1`` the cells fan out over a process pool (``cell_fn``
    must be module-level so the pool can pickle it); the result list keeps
    the serial order either way, because ``Pool.map`` returns results in
    submission order regardless of which worker finished first.  Fewer than
    two cells run in-process: there is nothing to fan out, and ``Pool(0)``
    raises.
    """
    cells = list(cells)
    if workers > 1 and len(cells) > 1:
        # Imported on use, like the CLI's imports below: every measured run
        # imports the experiments package and should not pay for the gate.
        import multiprocessing
        with multiprocessing.Pool(min(workers, len(cells))) as pool:
            return pool.map(cell_fn, cells)
    return [cell_fn(cell) for cell in cells]


@dataclass
class LossCell:
    """One (technique, shard count, crash pattern) cell of a loss matrix."""

    technique: str
    level: SafetyLevel
    crash_pattern: str
    predicted_possible_loss: bool
    observed_loss: bool
    outcome: object
    #: 1 for the single-group matrix.
    shard_count: int = 1
    #: The pattern's loss-independent invariants (2PC atomicity, every client
    #: answered, routing-map crash consistency, post-pattern availability).
    invariants_ok: bool = True

    @property
    def sound(self) -> bool:
        """True if the observation does not contradict the prediction.

        An observed loss in a cell where the criterion promises no loss is a
        soundness violation, as is a broken invariant; an observed survival
        in a "possible loss" cell is fine (possible, not certain).
        """
        return ((self.predicted_possible_loss or not self.observed_loss)
                and self.invariants_ok)

    @property
    def demonstrated(self) -> bool:
        """A possible loss was actually exhibited by this cell's schedule."""
        return self.predicted_possible_loss and self.observed_loss


def loss_cell(technique: str, crash_pattern: str, outcome,
              shards: Iterable[Tuple[bool, bool]], **fields) -> LossCell:
    """Confront ``outcome`` with the derived Table 3 verdict.

    ``shards`` holds ``(group_failed, delegate_crashed)`` of every shard the
    audited transaction depends on; the verdict composes the per-shard
    conditions (:func:`~repro.core.matrix.partitioned_loss_condition`),
    guarded by the confirmation rule: a transaction that was never confirmed
    to its client cannot be *lost* in the sense of the paper.
    """
    level = safety_of_technique(technique)
    predicted = outcome.confirmed and partitioned_loss_condition(
        (level, group_failed, delegate_crashed)
        for group_failed, delegate_crashed in shards)
    return LossCell(technique=technique, level=level,
                    crash_pattern=crash_pattern,
                    predicted_possible_loss=predicted,
                    observed_loss=outcome.transaction_lost, outcome=outcome,
                    **fields)


def violations(entries: Sequence) -> List:
    """Cells whose observation contradicts the prediction or an invariant."""
    return [entry for entry in entries if not entry.sound]


def demonstrated(entries: Sequence) -> List:
    """Cells that exhibited what their prediction allows."""
    return [entry for entry in entries if entry.demonstrated]


def loss_bars(entries: Sequence[LossCell]) -> List[str]:
    """The demonstration bar of the loss matrices (a CLI gate problem list)."""
    return [] if demonstrated(entries) else [
        "no predicted-possible-loss cell demonstrated a loss schedule"]


# --------------------------------------------------------------------------- CLI gate
TRACE_ARGUMENT = ("--trace", dict(
    default=None, metavar="PATH",
    help="also run the canonical traced scenario and write its Chrome "
         "trace to PATH"))


def matrix_cli(argv: Optional[List[str]], *, description: str,
               report_name: str,
               run: Callable[[object, SimulationParameters], Sequence],
               render: Callable[[Sequence], str],
               bars: Callable[[Sequence], List[str]],
               engines_of: Callable[[object], Sequence[str]]
               = lambda arguments: [arguments.engine],
               extra_arguments: Sequence[Tuple[str, dict]] = ()) -> int:
    """The shared CLI / CI gate of the failure matrices.

    ``run(arguments, params)`` executes the matrix (``params`` is the cell
    cluster's parameter set on ``--engine``); the rendered report is printed *and* written
    under ``--report-dir``; the exit code is non-zero on any soundness
    violation or any problem ``bars(entries)`` names.

    The report file is named after the run, so that the tracked
    ``<report_name>.txt`` has one producing command (the full run on the
    default engine, or spanning all of them): ``--smoke`` runs write
    ``<report_name>_smoke`` and runs confined to another engine add an
    ``.<engine>`` suffix — side files git ignores.
    """
    import argparse
    from pathlib import Path

    from .traced import maybe_write_scenario_trace

    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced cell set for CI")
    parser.add_argument("--engine", default=DEFAULT_ENGINE,
                        choices=engine_names(),
                        help="total-order broadcast engine the group-based "
                             "techniques run on")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1,
                        help="fan the matrix cells out over N worker "
                             "processes (cells are independent simulations; "
                             "report order stays deterministic)")
    parser.add_argument("--report-dir", default="benchmarks/benchmark_reports",
                        help="directory the matrix report is written to")
    for flag, keywords in extra_arguments:
        parser.add_argument(flag, **keywords)
    arguments = parser.parse_args(argv)

    entries = run(arguments,
                  small_parameters(broadcast_engine=arguments.engine))
    maybe_write_scenario_trace(getattr(arguments, "trace", None),
                               seed=arguments.seed)
    engines = list(engines_of(arguments))
    text = f"engine: {', '.join(engines)}\n{render(entries)}"
    print(text)
    if arguments.smoke:
        report_name += "_smoke"
    if engines == [arguments.engine] and arguments.engine != DEFAULT_ENGINE:
        report_name += f".{arguments.engine}"
    report_dir = Path(arguments.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / f"{report_name}.txt").write_text(text + "\n",
                                                   encoding="utf-8")
    broken = violations(entries)
    problems = ([f"{len(broken)} soundness violations"] if broken else []) \
        + bars(entries)
    for problem in problems:
        print(f"SMOKE FAILURE: {problem}")
    return 1 if problems else 0
