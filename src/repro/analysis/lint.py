"""CLI lint gate: ``python -m repro.analysis.lint``.

Exits 0 when the tree is clean, 1 when any finding is active.  The report is
always written (stdout or ``--output``) *before* the exit code is decided, so
CI can upload it as an artifact even on failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import render_report, run_lint
from .rules import default_rules


def _default_root() -> Path:
    import repro
    return Path(repro.__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="AST lint gate for the repo's determinism contracts")
    parser.add_argument(
        "--root", type=Path, default=None,
        help="package root to lint (default: the installed repro package)")
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format (json is the CI artifact schema)")
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the report to this file instead of stdout")
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule names to run (default: all)")
    parser.add_argument(
        "--verbose", action="store_true",
        help="include suppressed findings in the human report")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.name}: {rule.description}")
        return 0
    if args.rules is not None:
        wanted = {name.strip() for name in args.rules.split(",")
                  if name.strip()}
        unknown = wanted - {rule.name for rule in rules}
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.name in wanted]

    root = args.root if args.root is not None else _default_root()
    report = run_lint(root, rules)

    if args.format == "json":
        from .engine import json_report
        text = json_report(report)
    else:
        text = render_report(report, verbose=args.verbose)
    if args.output is not None:
        args.output.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    if not report.ok and args.output is not None:
        # Keep the failure visible even when the report went to a file.
        print(f"lint: {len(report.findings)} finding(s); "
              f"see {args.output}", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
