"""Static determinism guards for the reproduction.

Every published result in this repo rests on invariants that code review
alone cannot hold for long: no wall-clock reads or unseeded randomness inside
simulated code, interned RNG streams on hot paths, no iteration over
nondeterministically-ordered collections on schedule-affecting paths, and a
protocol stack whose layers only depend downward.  This package enforces them
as an AST-based lint suite (``python -m repro.analysis.lint``) that CI gates
on.
"""

from .engine import (Finding, LintReport, ParsedModule, Rule, Suppression,
                     json_report, render_report, run_lint)
from .rules import (DEFAULT_RULES, FloatTimeArithRule, LayerContractRule,
                    OrderingHazardRule, SlotsConsistencyRule, UnseededRngRule,
                    WallClockRule, default_rules)

__all__ = [
    "Finding",
    "LintReport",
    "ParsedModule",
    "Rule",
    "Suppression",
    "run_lint",
    "render_report",
    "json_report",
    "DEFAULT_RULES",
    "default_rules",
    "WallClockRule",
    "UnseededRngRule",
    "OrderingHazardRule",
    "SlotsConsistencyRule",
    "FloatTimeArithRule",
    "LayerContractRule",
]
