"""Failure-injection matrices for the paper's Tables 2 and 3.

The experiments here confront the *derived* tables of
:mod:`repro.core.matrix` with *observed* behaviour of the implemented
techniques under concrete crash schedules.  Two properties are checked:

* **soundness** — whenever the criterion promises "No Transaction Loss" for a
  failure pattern, the implementation must indeed never lose a confirmed
  transaction under that pattern;
* **demonstration** — for the "Possible Transaction Loss" cells, the
  experiment exhibits at least one concrete schedule in which the transaction
  is actually lost (where such a schedule exists for our implementation; the
  cells where the paper's "possible" is not realised by this implementation
  are reported as ``demonstrated=False`` rather than asserted).

The cell fan-out, the :class:`~repro.experiments.harness.LossCell` entry, the
``violations`` / ``demonstrated`` filters and the CLI gate are the shared
:mod:`repro.experiments.harness`; this module is the cell table, the cell
function and the renderer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..workload.params import SimulationParameters
from .harness import (SMOKE_TECHNIQUES, TECHNIQUES, TRACE_ARGUMENT, LossCell,
                      loss_bars, loss_cell, matrix_cli, run_cells)
from .scenarios import run_crash_scenario

#: The crash patterns exercised for every technique, with the gate setting
#: that makes the pattern meaningful (freeze = crash between delivery and
#: processing on the non-delegates).
_PATTERNS = (
    ("none", False),
    ("delegate", False),
    ("minority", False),
    ("all-delegate-stays-down", True),
    ("all-recover-all", True),
)


def _matrix_cell(cell) -> LossCell:
    """Run one (technique, crash pattern) cell."""
    technique, pattern, freeze, seed, params = cell
    outcome = run_crash_scenario(technique, crash_pattern=pattern,
                                 seed=seed, params=params,
                                 freeze_non_delegates=freeze)
    return loss_cell(technique, pattern, outcome,
                     [(outcome.group_failed, outcome.delegate_crashed)])


def run_failure_matrix(techniques: Optional[Sequence[str]] = None,
                       seed: int = 1,
                       params: Optional[SimulationParameters] = None,
                       workers: int = 1) -> List[LossCell]:
    """Run every (technique, crash pattern) scenario, technique-major."""
    return run_cells(_matrix_cell,
                     ((technique, pattern, freeze, seed, params)
                      for technique in techniques or TECHNIQUES
                      for pattern, freeze in _PATTERNS), workers)


def crash_tolerance_summary(entries: List[LossCell]) -> Dict[str, int]:
    """Observed crash tolerance per technique (Table 2, measured side).

    For each technique, the largest number of crashed servers in any pattern
    that did *not* lose the transaction.
    """
    summary: Dict[str, int] = {}
    for entry in entries:
        if entry.observed_loss:
            continue
        crashed = len(entry.outcome.crashed_servers)
        summary[entry.technique] = max(summary.get(entry.technique, 0), crashed)
    return summary


def render_matrix(entries: List[LossCell]) -> str:
    """Human-readable rendering of the failure matrix (benchmark report)."""
    lines = [f"{'technique':>14} | {'pattern':>24} | {'predicted':>10} | "
             f"{'observed':>9} | sound"]
    lines.append("-" * len(lines[0]))
    for entry in entries:
        predicted = "possible" if entry.predicted_possible_loss else "no loss"
        observed = "LOST" if entry.observed_loss else "kept"
        lines.append(f"{entry.technique:>14} | {entry.crash_pattern:>24} | "
                     f"{predicted:>10} | {observed:>9} | {entry.sound}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI / CI smoke entry: exits non-zero on a soundness violation or when
    no predicted-possible-loss cell demonstrated a concrete losing schedule."""
    return matrix_cli(
        argv, description=__doc__.splitlines()[0],
        report_name="failure_matrix",
        run=lambda arguments, params: run_failure_matrix(
            techniques=SMOKE_TECHNIQUES if arguments.smoke else None,
            seed=arguments.seed, params=params, workers=arguments.workers),
        render=render_matrix, bars=loss_bars,
        extra_arguments=(TRACE_ARGUMENT,))


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
