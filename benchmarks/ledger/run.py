#!/usr/bin/env python3
"""The perf ledger: four long workloads, timed from outside the program.

Two ways to run it, one code path:

* the whole ledger — ``python benchmarks/ledger/run.py [--seed 101]
  [--rounds 4] [--trace] [--selfcheck] [--smoke]`` runs every workload,
  interleaving their passes round-robin, prints every metric by name with
  its unit and sample count, checks the outputs and writes
  ``results/latest.json`` (and ``results/trace.json`` with ``--trace``);
* one measured run of one workload, the form the PR driver uses —
  ``--workload NAME --seed N --seconds S --trace 0|1`` — which prints one
  JSON object as its last line: the end-to-end metrics (``--trace 0``) or
  the per-layer metrics (``--trace 1``).

Names, units, directions and bounds live in ``BENCHMARK.json`` at the repo
root; a metric computed here but not declared there (or the reverse) is a
hard failure.  See README.md for the protocol and the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
RESULTS_DIR = LEDGER_DIR / "results"
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: {REPO_ROOT / 'src' / 'repro'} not found — the "
             f"benchmark measures the program in src/, run it from a checkout")
for entry in (str(LEDGER_DIR), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.core.stats import percentile  # noqa: E402

import cells  # noqa: E402
import layers  # noqa: E402
from estimate import (DeterminismError, assert_same_work,  # noqa: E402
                      host_estimates)

#: Fewest passes the min-of-passes estimate is taken over.
MIN_ROUNDS = 3
#: Rounds-mode only: a workload noisier than this gets extra passes ...
NOISE_TARGET = 0.03
#: ... up to this many in total.
MAX_ROUNDS = 6
#: End-to-end metrics read off the host clock; every other one is a pure
#: function of the seed and must be bit-equal in an A/A run.
HOST_METRICS = ("setup_s", "commits_per_wall_s", "peak_rss_mb")


def load_contract() -> dict:
    """BENCHMARK.json: the declared names, units, directions and bounds."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- passes -----------------------------------------------------------------------------


def run_pass(name: str, seed: int, smoke: bool, audit: bool = False,
             trace: bool = False) -> dict:
    """One pass of one workload in a fresh single-threaded interpreter."""
    command = [sys.executable, str(LEDGER_DIR / "cells.py"),
               "--workload", name, "--seed", str(seed)]
    command += [flag for flag, on in (("--smoke", smoke), ("--audit", audit),
                                      ("--trace", trace)) if on]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"),
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"pass of {name} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def measure(names: List[str], seed: int, smoke: bool, rounds: int,
            seconds: Optional[float]) -> Dict[str, List[dict]]:
    """Untraced passes of every workload, interleaved round-robin.

    Rounds mode (``seconds`` is None) runs ``rounds`` rounds and then tops
    up noisy workloads; time-boxed mode runs ``rounds`` rounds and then as
    many more as still fit into ``seconds``.
    """
    passes: Dict[str, List[dict]] = {name: [] for name in names}
    started = time.perf_counter()

    def one_pass(name: str) -> None:
        # The audits are deterministic too; once, on the first pass.
        passes[name].append(run_pass(name, seed, smoke,
                                     audit=not passes[name]))

    done = 0
    while True:
        for name in names:
            one_pass(name)
        done += 1
        elapsed = time.perf_counter() - started
        if done >= rounds and (seconds is None
                               or elapsed + elapsed / done > seconds):
            break
    if seconds is None and not smoke:
        for name in names:
            while (len(passes[name]) < MAX_ROUNDS and
                   host_estimates(passes[name])["host_noise"] > NOISE_TARGET):
                one_pass(name)
    return passes


# -- one workload's numbers -------------------------------------------------------------


def summarize(name: str, passes: List[dict], smoke: bool) -> dict:
    """End-to-end metrics, totals and output checks of one workload."""
    failures: List[str] = []
    try:
        assert_same_work(passes)
    except DeterminismError as error:
        failures.append(f"determinism: {error}")
    host = host_estimates(passes)
    done = passes[0]["cells"]
    windows = [cell["window"] for cell in done]
    audits = [cell["audit"] for cell in done]
    for cell, report in zip(done, audits):
        failures += [f"cell seed {cell['seed']}: {text}"
                     for text in report["failures"]]
    response = [ms for window in windows for ms in window["response_ms"]]
    window_s = (cells.SMOKE if smoke else cells.FULL).window / 1000.0

    def total(field: str) -> int:
        return sum(window[field] for window in windows)

    totals = {
        "events": sum(cell["events"] for cell in done),
        "replied_commits": total("replied_commits"),
        "attempted": total("attempted"),
        "committed": total("committed"),
        "unanswered": total("unanswered"),
        "slo_miss": total("slo_miss"),
        "lost_confirmed": sum(r.get("lost_confirmed", 0) for r in audits),
        "divergent_items": sum(r.get("divergent_items", 0) for r in audits),
        "run_wall_s": host["run_wall_s"],
        "sim_commit_p99_ms": percentile(response, 0.99),
    }
    if totals["unanswered"]:
        failures.append(f"{totals['unanswered']} in-window transactions got "
                        f"no reply before the drain ended")
    end_to_end = {
        "setup_s": host["setup_s"],
        "commits_per_wall_s": totals["replied_commits"] / host["run_wall_s"],
        "peak_rss_mb": host["peak_rss_mb"],
        "events_per_commit": totals["events"] / totals["replied_commits"],
        "sim_commit_p50_ms": percentile(response, 0.50),
        "sim_commit_p90_ms": percentile(response, 0.90),
        "sim_goodput_tps": totals["committed"] / (window_s * len(done)),
        "slo_met_share": 1.0 - totals["slo_miss"] / totals["attempted"],
        "commit_share": totals["committed"] / totals["attempted"],
    }
    return {
        "workload": name, "cells": len(done), "passes": len(passes),
        "end_to_end": end_to_end, "host": host, "totals": totals,
        "counters": layers.combine_counters(done), "failures": failures,
        "pass_walls_s": [one["wall_s"] for one in passes],
        "first_cell": {"events": done[0]["events"],
                       "committed": windows[0]["committed"]},
    }


def trace_workload(summary: dict, seed: int, smoke: bool) -> dict:
    """The traced run of one workload; adds ``per_layer`` to its summary."""
    name = summary["workload"]
    traced = run_pass(name, seed, smoke, trace=True)
    trace = traced["trace"]
    first = summary["first_cell"]
    for label in ("A", "B"):
        for field in ("events", "committed"):
            if trace[label][field] != first[field]:
                summary["failures"].append(
                    f"traced pass {label} {field} {trace[label][field]} != "
                    f"untraced {first[field]}")
    summary["per_layer"] = layers.per_layer_metrics(
        summary["counters"], summary["totals"], trace,
        summary["host"]["first_cell_run_s"])
    if summary["per_layer"]["trace.attributed_share"] < 0.95:
        summary["failures"].append(
            "less than 95% of traced self-time lands in a named layer")
    return traced


def run_ledger(names: List[str], seed: int, smoke: bool, rounds: int,
               seconds: Optional[float], trace: bool) -> dict:
    """Measure, summarise and (optionally) trace ``names``; check outputs."""
    started = time.perf_counter()
    passes = measure(names, seed, smoke, rounds, seconds)
    summaries: Dict[str, dict] = {}
    traced: Dict[str, dict] = {}
    for name in names:
        summary = summarize(name, passes[name], smoke)
        if trace:
            traced[name] = trace_workload(summary, seed, smoke)
        summaries[name] = summary
    failures = [f"{name}: {text}" for name in names
                for text in summaries[name]["failures"]]
    group_safe = summaries.get("paper_group_safe")
    lazy = summaries.get("paper_lazy_1safe")
    if group_safe and lazy and not (
            group_safe["end_to_end"]["sim_commit_p50_ms"]
            < lazy["end_to_end"]["sim_commit_p50_ms"]):
        failures.append("paper ordering violated: group-safe p50 is not "
                        "below lazy 1-safe p50")
    return {
        "stamp": stamp(seed, smoke), "workloads": summaries,
        "failures": failures, "wall_s": time.perf_counter() - started,
        # The runner's own spans of every pass, the traced one last.
        "spans": {name: [{"wall_s": one["wall_s"], "spans": one["spans"]}
                         for one in passes[name] + [traced[name]]]
                  for name in traced},
        "trace": {name: traced[name]["trace"] for name in traced},
    }


def stamp(seed: int, smoke: bool) -> dict:
    """Machine, interpreter and revision the numbers belong to."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git": revision, "seed": seed,
            "smoke": smoke, "model": "unvalidated (PAPER.md holds no "
                                     "numeric reference; no error figure)"}


# -- output -----------------------------------------------------------------------------


def check_names(contract: dict, result: dict, trace: bool) -> None:
    """Computed metric names must be exactly the declared ones."""
    for kind in ("end_to_end",) + (("per_layer",) if trace else ()):
        declared = {metric["name"] for metric in contract[kind]}
        for name, summary in result["workloads"].items():
            computed = set(summary[kind])
            if computed != declared:
                raise SystemExit(
                    f"ledger: {kind} names of {name} differ from "
                    f"BENCHMARK.json: missing {sorted(declared - computed)}, "
                    f"undeclared {sorted(computed - declared)}")
            bad = [key for key, value in summary[kind].items()
                   if not math.isfinite(value)]
            if bad:
                raise SystemExit(f"ledger: non-finite {kind} of {name}: {bad}")


def render(contract: dict, result: dict) -> str:
    """Every metric by name, with value, unit and sample count."""
    lines = []
    for name, summary in result["workloads"].items():
        host, totals = summary["host"], summary["totals"]
        lines.append(
            f"== {name}: {summary['cells']} cells x {summary['passes']} "
            f"passes, run wall min-sum {host['run_wall_s']:.3f} s (median "
            f"pass {host['run_wall_median_s']:.3f} s), host_noise "
            f"{host['host_noise']:.4f}")
        per_attempt = f"n={totals['attempted']} in-window attempts"
        per_commit = f"n={totals['committed']} in-window commits"
        samples = {"sim_commit_p50_ms": per_commit,
                   "sim_commit_p90_ms": per_commit,
                   "events_per_commit": f"n={totals['events']} events",
                   **dict.fromkeys(HOST_METRICS,
                                   f"n={summary['passes']} passes")}
        for metric in contract["end_to_end"]:
            key = metric["name"]
            count = samples.get(key, per_attempt)
            lines.append(
                f"  {key:<24} {summary['end_to_end'][key]:>14.4f} "
                f"{metric['unit']:<6} {count}  ({metric['better']} is better, "
                f"bound {metric['bound']:.0%})")
        for metric in contract["per_layer"] if "per_layer" in summary else ():
            key = metric["name"]
            lines.append(f"  {key:<52} {summary['per_layer'][key]:>16.5f} "
                         f"{metric['unit']}")
        lines.append("  generator lateness: 0 ms by construction (arrivals "
                     "are drawn on the simulated clock)")
    lines.append("checks: " + ("all passed" if not result["failures"]
                               else "; ".join(result["failures"])))
    return "\n".join(lines)


def driver_line(contract: dict, summary: dict, trace: bool,
                correct: bool) -> str:
    """The one-object last line the PR driver reads."""
    kind = "per_layer" if trace else "end_to_end"
    totals = summary["totals"]
    return json.dumps({
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["unanswered"] + totals["lost_confirmed"],
        "metrics": {metric["name"]: {"value": summary[kind][metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in contract[kind]},
    })


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def selfcheck(contract: dict, first: dict, second: dict) -> Tuple[str, int]:
    """A/A: the same code twice, every workload x end-to-end metric.

    Returns the report and the number of rows outside their bound.
    """
    rows = [f"A/A self-check, seed {first['stamp']['seed']}, "
            f"{first['stamp']['nproc']} cores, python "
            f"{first['stamp']['python']}, git {first['stamp']['git'][:12]}",
            f"{'workload':<28}{'metric':<22}{'run A':>14}{'run B':>14}"
            f"{'diff':>9}{'bound':>8}  verdict"]
    failed = 0
    for name in first["workloads"]:
        for metric in contract["end_to_end"]:
            key = metric["name"]
            a = first["workloads"][name]["end_to_end"][key]
            b = second["workloads"][name]["end_to_end"][key]
            diff = abs(b - a) / abs(a)
            allowed = metric["bound"] if key in HOST_METRICS else 0.0
            ok = diff <= allowed
            failed += not ok
            rows.append(f"{name:<28}{key:<22}{a:>14.4f}{b:>14.4f}"
                        f"{diff:>9.2%}{allowed:>8.0%}  "
                        f"{'PASS' if ok else 'FAIL'}")
        for label, run in (("A", first), ("B", second)):
            rows.append(f"{name:<28}host_noise run {label}: "
                        f"{run['workloads'][name]['host']['host_noise']:.4f}")
    rows.append(f"self-check: {'PASS' if not failed else f'{failed} FAILED'}")
    return "\n".join(rows), failed


# -- command line -----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(cells.WORKLOADS),
                        help="run this workload only and end with the "
                             "driver's one-line JSON result")
    parser.add_argument("--seed", type=int, default=101,
                        help="cell seeds are SEED, SEED+1, ... (default 101)")
    parser.add_argument("--rounds", type=int, default=4,
                        help=f"passes per workload (default 4, at least "
                             f"{MIN_ROUNDS})")
    parser.add_argument("--seconds", type=float,
                        help="time-boxed: after the first "
                             f"{MIN_ROUNDS} rounds, run as many more as fit")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced run (per-layer "
                                             "metrics)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice (A/A) and compare")
    parser.add_argument("--smoke", action="store_true",
                        help="one short cell per workload, 2 rounds")
    args = parser.parse_args(argv)

    contract = load_contract()
    names = [args.workload] if args.workload else list(cells.WORKLOADS)
    if [w["name"] for w in contract["workloads"]] != list(cells.WORKLOADS):
        raise SystemExit("ledger: workloads differ from BENCHMARK.json")
    trace = bool(args.trace)
    if args.smoke:
        rounds = 2
    elif args.seconds is not None and trace:
        # The driver's per-layer run: counters from one untraced pass, then
        # the traced passes, which re-check its event and commit counts.
        rounds = 1
    elif args.seconds is not None:
        rounds = MIN_ROUNDS
    else:
        rounds = max(MIN_ROUNDS, args.rounds)
    seconds = None if args.smoke or trace else args.seconds

    result = run_ledger(names, args.seed, args.smoke, rounds, seconds, trace)
    check_names(contract, result, trace)
    print(render(contract, result))
    if args.selfcheck:
        again = run_ledger(names, args.seed, args.smoke, rounds, seconds,
                           trace)
        report, outside = selfcheck(contract, result, again)
        print(report)
        if not args.smoke:
            (RESULTS_DIR / "selfcheck.txt").write_text(report + "\n",
                                                       encoding="utf-8")
        if outside:
            result["failures"].append(f"A/A self-check: {outside} rows "
                                      f"outside their bound")
        result["failures"] += again["failures"]
    if trace and not args.smoke:
        write_json(RESULTS_DIR / "trace.json",
                   {"stamp": result["stamp"], "trace": result["trace"],
                    "spans": result["spans"]})
    if args.workload:
        print(driver_line(contract, result["workloads"][args.workload], trace,
                          correct=not result["failures"]))
    elif not args.smoke:
        write_json(RESULTS_DIR / "latest.json",
                   {key: result[key] for key in
                    ("stamp", "workloads", "failures", "wall_s")})
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
