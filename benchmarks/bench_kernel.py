"""Wall-clock benchmark of the simulation kernel (the perf-trajectory file).

Unlike the other benchmarks — which measure *simulated* quantities
(throughput in committed transactions per simulated second, response times in
simulated milliseconds) — this harness measures how many committed
transactions the simulator gets through per **wall-clock** second.  Every
experiment in the reproduction is gated by that number: the Fig. 9 sweep, the
45-cell partitioned failure matrix and the autobalance runs all spend their
time in the event loop, so 2x the commits per second means 2x the scenarios
per CI minute.  Events per second is recorded too but is not the headline: a
kernel change may make the same commits cost *fewer* events, which lowers
events/s while the run gets faster.

Three representative scenarios cover the three layers of the system:

* ``one_shard_saturation`` — the paper's own Table 4 topology (9 servers,
  group-safe) at a saturating open-loop load: atomic broadcast, WAL flushes,
  buffer-pool traffic.
* ``partitioned_zipf`` — 4 range-sharded groups under a Zipf-1.1 skew with
  10 % cross-partition 2PC traffic: routing, classification and the
  coordinator on top of the kernel.
* ``autobalance_shift`` — the hotspot-shift experiment with the rebalance
  controller live: migrations, fences and epoch bumps mid-run.

Outputs:

* ``BENCH_kernel.json`` (repo root in full mode, the report directory in
  ``--smoke`` mode) — machine-readable before/after numbers future kernel
  PRs regress against;
* ``benchmarks/benchmark_reports/bench_kernel.txt`` — the human report.

Regression gate: unless ``BENCH_KERNEL_SKIP_GATE=1`` (noisy runners) or
``--no-gate`` is passed, the run fails if any scenario's commits/sec drops
more than ``BENCH_KERNEL_TOLERANCE`` (default 0.30) below the committed
numbers.  Capture a new baseline on the *unoptimised* kernel with
``--capture-baseline``; ordinary runs preserve the stored baseline and only
refresh the ``current`` section.  Both sections are stamped with the machine,
interpreter and git revision they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.kernel import (profile_kernel_trace,  # noqa: E402
                              render_kernel_profile)
from repro.partition.cluster import PartitionedCluster  # noqa: E402
from repro.partition.controller import RebalanceController  # noqa: E402
from repro.partition.workload import PartitionedOpenLoopClients  # noqa: E402
from repro.replication.cluster import ReplicatedDatabaseCluster  # noqa: E402
from repro.workload.clients import OpenLoopClientPool  # noqa: E402
from repro.workload.params import SimulationParameters  # noqa: E402

DEFAULT_JSON = REPO_ROOT / "BENCH_kernel.json"
REPORT_DIR = REPO_ROOT / "benchmarks" / "benchmark_reports"
SMOKE_JSON = REPORT_DIR / "BENCH_kernel.json"
DEFAULT_TOLERANCE = 0.30


def _event_count(sim) -> int:
    """Total events scheduled by ``sim`` (available on old and new kernels)."""
    return getattr(sim, "scheduled_events", None) or sim._sequence


def _summary(sim, commits: int, sim_ms: float, wall_s: float,
             trace=None) -> Dict[str, float]:
    events = _event_count(sim)
    summary = {
        "events": events,
        "committed_txns": commits,
        "simulated_ms": sim_ms,
        "wall_seconds": round(wall_s, 3),
        "events_per_sec": round(events / wall_s, 1) if wall_s > 0 else 0.0,
        "commits_per_sec": round(commits / wall_s, 1) if wall_s > 0 else 0.0,
    }
    if trace is not None:
        summary["profile"] = profile_kernel_trace(trace)
    return summary


# -- scenarios --------------------------------------------------------------------------


def one_shard_saturation(smoke: bool, profile: bool = False,
                         engine: str = "fixed-sequencer") -> Dict[str, float]:
    """Table 4 group-safe topology at a saturating open-loop load."""
    duration_ms = 4_000.0 if smoke else 20_000.0
    params = SimulationParameters.paper().with_overrides(
        broadcast_engine=engine)
    cluster = ReplicatedDatabaseCluster("group-safe", params=params, seed=11)
    trace = cluster.sim.enable_trace() if profile else None
    cluster.start()
    clients = OpenLoopClientPool(cluster, load_tps=40.0, warmup=0.0)
    clients.start()
    started = time.perf_counter()
    cluster.run(until=duration_ms)
    wall = time.perf_counter() - started
    return _summary(cluster.sim, len(clients.committed), duration_ms, wall,
                    trace=trace)


def partitioned_zipf(smoke: bool, profile: bool = False,
                     engine: str = "fixed-sequencer") -> Dict[str, float]:
    """4 range shards, Zipf-1.1 skew, 10% cross-partition 2PC traffic."""
    duration_ms = 3_000.0 if smoke else 12_000.0
    params = SimulationParameters.small(server_count=3,
                                        item_count=2_000).with_overrides(
        partition_count=4, zipf_skew=1.1, cross_partition_probability=0.1,
        broadcast_engine=engine)
    cluster = PartitionedCluster("group-safe", params=params, seed=17,
                                 strategy="range")
    trace = cluster.sim.enable_trace() if profile else None
    cluster.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=300.0, warmup=0.0)
    clients.start()
    started = time.perf_counter()
    cluster.run(until=duration_ms)
    wall = time.perf_counter() - started
    return _summary(cluster.sim, clients.committed_count, duration_ms, wall,
                    trace=trace)


def autobalance_shift(smoke: bool, profile: bool = False,
                      engine: str = "fixed-sequencer") -> Dict[str, float]:
    """Hotspot shift repaired by the live rebalance controller."""
    duration_ms = 8_000.0 if smoke else 17_000.0
    shift_at_ms = duration_ms * 0.35
    items = 240 if smoke else 400
    params = SimulationParameters.small(server_count=3,
                                        item_count=items).with_overrides(
        partition_count=4, zipf_skew=1.1, cross_partition_probability=0.05,
        broadcast_engine=engine)
    cluster = PartitionedCluster("group-safe", params=params, seed=33,
                                 strategy="range")
    trace = cluster.sim.enable_trace() if profile else None
    cluster.start()
    controller = RebalanceController(cluster, window_ms=500.0,
                                     share_threshold=0.45,
                                     cooldown_windows=2, hysteresis_windows=4)
    controller.start()
    clients = PartitionedOpenLoopClients(cluster, load_tps=150.0,
                                         warmup=0.0)
    clients.start()
    started = time.perf_counter()
    cluster.run(until=shift_at_ms)
    cluster.workload.shift_hotspot(items // 2)
    cluster.run(until=duration_ms)
    wall = time.perf_counter() - started
    return _summary(cluster.sim, clients.committed_count, duration_ms, wall,
                    trace=trace)


SCENARIOS = {
    "one_shard_saturation": one_shard_saturation,
    "partitioned_zipf": partitioned_zipf,
    "autobalance_shift": autobalance_shift,
}


# -- persistence and gating -------------------------------------------------------------


def load_previous(path: Path, section: str = "scenarios") -> Dict[str, Dict]:
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text()).get(section, {})
    except (json.JSONDecodeError, OSError):
        return {}


def stamp() -> Dict[str, object]:
    """Machine, interpreter and revision a set of numbers belongs to
    (``-dirty``: measured on uncommitted changes on top of that commit)."""
    try:
        revision = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {"machine": platform.platform(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "git": revision}


def regression_failures(previous: Dict[str, Dict], fresh: Dict[str, Dict],
                        tolerance: float) -> list:
    """Scenarios whose fresh commits/sec fell below the committed floor."""
    failures = []
    for name, run in fresh.items():
        entry = previous.get(name, {})
        reference = entry.get("current") or entry.get("baseline")
        if not reference:
            continue
        floor = reference["commits_per_sec"] * (1.0 - tolerance)
        if run["commits_per_sec"] < floor:
            failures.append(
                f"{name}: {run['commits_per_sec']:.1f} commits/s is more "
                f"than {tolerance:.0%} below the committed "
                f"{reference['commits_per_sec']:.1f} commits/s")
    return failures


def render_report(scenarios: Dict[str, Dict], mode: str,
                  engine: str = "fixed-sequencer",
                  stamps: Optional[Dict[str, Dict]] = None) -> str:
    lines = [
        f"Simulation-kernel wall-clock benchmark ({mode} mode, "
        f"{engine} engine)",
        "",
        f"{'scenario':>22} | {'commits/s':>10} | {'baseline':>10} | "
        f"{'speedup':>8} | {'events/commit':>13} | {'baseline':>9} | "
        f"{'events/s':>10} | {'wall s':>7}",
        "-" * 108,
    ]
    for name, entry in scenarios.items():
        current = entry.get("current") or {}
        baseline = entry.get("baseline") or {}
        speedup = entry.get("speedup_commits_per_sec")
        lines.append(
            f"{name:>22} | {current.get('commits_per_sec', 0.0):>10,.1f} | "
            f"{baseline.get('commits_per_sec', 0.0):>10,.1f} | "
            f"{(f'{speedup:.2f}x' if speedup else '—'):>8} | "
            f"{_events_per_commit(current):>13,.1f} | "
            f"{_events_per_commit(baseline):>9,.1f} | "
            f"{current.get('events_per_sec', 0.0):>10,.0f} | "
            f"{current.get('wall_seconds', 0.0):>7.2f}")
    lines += [
        "",
        "commits/s: committed transactions per wall-clock second (the",
        "headline, and what the regression gate compares).  baseline: the",
        "kernel before the optimisation, same machine.  events/commit is a",
        "count, exact for a seed; events/s falls when a commit needs fewer",
        "events and is shown for reference only.",
    ]
    for label in ("baseline", "current"):
        mark = (stamps or {}).get(label)
        if mark:
            lines.append(f"{label}: git {mark['git']}, python "
                         f"{mark['python']}, {mark['nproc']} cores, "
                         f"{mark['machine']}")
    return "\n".join(lines)


def _events_per_commit(run: Dict) -> float:
    commits = run.get("committed_txns")
    return run["events"] / commits if commits else 0.0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short runs for CI; writes the JSON next to the "
                             "reports instead of the repo root")
    parser.add_argument("--capture-baseline", action="store_true",
                        help="record this run as the pre-optimisation "
                             "baseline (refuses to overwrite an existing "
                             "baseline unless --force is given)")
    parser.add_argument("--force", action="store_true",
                        help="allow --capture-baseline to overwrite a "
                             "previously captured baseline")
    parser.add_argument("--json", type=Path, default=None,
                        help="output path of the machine-readable results")
    parser.add_argument("--repeats", type=int, default=3,
                        help="wall-clock repeats per scenario in full mode; "
                             "the best (least-interference) run is reported")
    parser.add_argument("--no-gate", action="store_true",
                        help="skip the commits/sec regression gate")
    parser.add_argument("--profile", action="store_true",
                        help="run each scenario once with kernel tracing on "
                             "and print a per-event-type profile (no timing "
                             "gate; traced runs are slower by design)")
    from repro.gcs.engines import DEFAULT_ENGINE, engine_names
    parser.add_argument("--engine", default=DEFAULT_ENGINE,
                        choices=engine_names(),
                        help="total-order broadcast engine the group-based "
                             "scenarios run on; non-default engines have "
                             "their own event mix, so the regression gate "
                             "only applies to the default")
    arguments = parser.parse_args(argv)

    if arguments.profile:
        for name, scenario in SCENARIOS.items():
            print(f"profiling {name}...", flush=True)
            run = scenario(arguments.smoke, profile=True,
                           engine=arguments.engine)
            print(render_kernel_profile(run["profile"]))
            print()
        return 0

    if arguments.json:
        json_path = arguments.json
    elif arguments.engine != DEFAULT_ENGINE:
        # Keep non-default-engine numbers out of the committed gate file:
        # their event mix is different, so they are not regression evidence.
        json_path = REPORT_DIR / f"BENCH_kernel.{arguments.engine}.json"
    else:
        json_path = SMOKE_JSON if arguments.smoke else DEFAULT_JSON
    mode = "smoke" if arguments.smoke else "full"
    committed = load_previous(DEFAULT_JSON)

    if arguments.capture_baseline and not arguments.force:
        existing = load_previous(json_path)
        captured = [name for name, entry in existing.items()
                    if entry.get("baseline")]
        if captured:
            print(f"refusing to overwrite the captured baseline of "
                  f"{len(captured)} scenario(s) in {json_path} "
                  f"({', '.join(sorted(captured))}).")
            print("Re-run with --force to overwrite it, or with --json to "
                  "write the capture to a side file.")
            return 2

    repeats = 1 if arguments.smoke else arguments.repeats
    fresh: Dict[str, Dict] = {}
    for name, scenario in SCENARIOS.items():
        print(f"running {name} ({mode}, best of {repeats})...", flush=True)
        best: Optional[Dict] = None
        for _attempt in range(repeats):
            run = scenario(arguments.smoke, engine=arguments.engine)
            if best is None or \
                    run["commits_per_sec"] > best["commits_per_sec"]:
                best = run
        fresh[name] = best
        print(f"  {best['commits_per_sec']:.1f} commits/s, "
              f"{best['events_per_sec']:,.0f} events/s "
              f"({best['wall_seconds']:.2f}s wall)", flush=True)

    scenarios: Dict[str, Dict] = {}
    for name, run in fresh.items():
        if arguments.capture_baseline:
            scenarios[name] = {"baseline": run, "current": None,
                               "speedup_commits_per_sec": None}
            continue
        baseline = committed.get(name, {}).get("baseline")
        speedup = (round(run["commits_per_sec"]
                         / baseline["commits_per_sec"], 2)
                   if baseline and baseline["commits_per_sec"] else None)
        scenarios[name] = {"baseline": baseline, "current": run,
                           "speedup_commits_per_sec": speedup}
    if arguments.capture_baseline:
        stamps = {"baseline": stamp(), "current": None}
    else:
        stamps = {"baseline": load_previous(DEFAULT_JSON,
                                            "stamps").get("baseline"),
                  "current": stamp()}

    payload = {
        "schema": 2,
        "mode": mode,
        "engine": arguments.engine,
        "note": "commits/s and events/s are wall-clock rates; baseline is "
                "the kernel before the optimisation on the same machine",
        "stamps": stamps,
        "scenarios": scenarios,
    }
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    report = render_report(scenarios, mode, engine=arguments.engine,
                           stamps=stamps)
    print()
    print(report)
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    report_name = ("bench_kernel_smoke.txt" if arguments.smoke
                   else "bench_kernel.txt")
    (REPORT_DIR / report_name).write_text(report + "\n", encoding="utf-8")
    print(f"\nwrote {json_path}")

    gate_disabled = (arguments.no_gate or arguments.capture_baseline
                     or arguments.engine != DEFAULT_ENGINE
                     or os.environ.get("BENCH_KERNEL_SKIP_GATE") == "1")
    if not gate_disabled:
        tolerance = float(os.environ.get("BENCH_KERNEL_TOLERANCE",
                                         DEFAULT_TOLERANCE))
        failures = regression_failures(committed, fresh, tolerance)
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            print("(set BENCH_KERNEL_SKIP_GATE=1 to override on noisy "
                  "runners)")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
