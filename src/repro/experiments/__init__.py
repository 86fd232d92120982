"""Experiment harnesses reproducing every table and figure of the paper.

The modules with a command line (``python -m repro.experiments.<name>``)
are re-exported lazily (PEP 562): imported here, each would already be in
``sys.modules`` when runpy executes it as ``__main__``, so it would load
twice and runpy would warn.  A name they export is imported on first use.
"""

from importlib import import_module

from .figure9 import (FIGURE9_LOADS, FIGURE9_TECHNIQUES, LoadPoint,
                      crossover_load, curves, figure9_sweep, render_figure9,
                      run_load_point)
from .harness import LossCell, demonstrated, violations
from .rebalance import (RebalanceOutcome, audit_commit_integrity,
                        render_rebalance_report, run_rebalance_experiment,
                        window_commits)
from .report import format_mapping, format_table
from .scaling import (DivergenceOutcome, analytic_scaling,
                      conflicting_updates_run, render_scaling)
from .scenarios import (CRASH_PLANS, ScenarioOutcome, figure5_scenario,
                        figure7_scenario, run_crash_scenario,
                        single_crash_scenario)

#: The submodules with a command line, searched in this order for a lazily
#: re-exported name.
_RUNNABLE = ("failure_matrix", "partition_failure_matrix",
             "partition_scaling")

__all__ = [
    "ScenarioOutcome",
    "CRASH_PLANS",
    "run_crash_scenario",
    "figure5_scenario",
    "figure7_scenario",
    "single_crash_scenario",
    "LossCell",
    "violations",
    "demonstrated",
    "run_failure_matrix",
    "crash_tolerance_summary",
    "render_matrix",
    "PARTITIONED_CRASH_PATTERNS",
    "ShardStatus",
    "PartitionedScenarioOutcome",
    "run_partitioned_crash_scenario",
    "run_partitioned_failure_matrix",
    "missing_pattern_classes",
    "render_partitioned_matrix",
    "LoadPoint",
    "run_load_point",
    "figure9_sweep",
    "curves",
    "crossover_load",
    "render_figure9",
    "FIGURE9_LOADS",
    "FIGURE9_TECHNIQUES",
    "DivergenceOutcome",
    "conflicting_updates_run",
    "analytic_scaling",
    "render_scaling",
    "PartitionPoint",
    "PARTITION_COUNTS",
    "DEFAULT_LOAD_TPS",
    "SPAN_VALUES",
    "run_partition_point",
    "partition_sweep",
    "render_partition_sweep",
    "span_sweep",
    "work_per_commit",
    "render_span_sweep",
    "RebalanceOutcome",
    "run_rebalance_experiment",
    "render_rebalance_report",
    "audit_commit_integrity",
    "window_commits",
    "format_table",
    "format_mapping",
]


def __getattr__(name):
    if name in __all__:
        for module_name in _RUNNABLE:
            module = import_module(f"{__name__}.{module_name}")
            if hasattr(module, name):
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
