"""Exporters for recorded traces.

Two output formats:

* **Chrome trace-event JSON** (:func:`chrome_trace` /
  :func:`write_chrome_trace`) — the ``{"traceEvents": [...]}`` object format
  understood by Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.
  Spans become ``"X"`` complete events, instants become ``"i"`` events, and
  each tracer track becomes a named thread via ``"M"`` metadata events.
  Timestamps are microseconds, so simulated milliseconds are scaled by 1000.
* **critical-path text report** (:func:`critical_path_report`) — one line per
  root span attributing its duration to queue/network/disk/cpu/protocol
  stages (see :meth:`repro.obs.tracer.Observability.critical_path`).

``python -m repro.obs.export --validate <path>`` re-checks an exported file
against the schema (used by CI after the traced smoke run).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .tracer import Observability, Span, STAGES

_PHASES = {"X", "i", "M"}


def _json_safe(labels: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value if isinstance(value, (str, int, float, bool))
            or value is None else repr(value)
            for key, value in labels.items()}


def chrome_trace(obs: Observability,
                 metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build the Chrome trace-event object for everything ``obs`` recorded.

    Open spans are skipped (they have no duration); their count is noted in
    ``otherData`` so a truncated run is visible rather than silent.
    """
    tids: Dict[str, int] = {}

    def tid_of(track: str) -> int:
        tid = tids.get(track)
        if tid is None:
            tid = len(tids) + 1
            tids[track] = tid
        return tid

    events: List[Dict[str, Any]] = []
    open_spans = 0
    for span in obs.spans:
        if span.end is None:
            open_spans += 1
            continue
        args = _json_safe(span.labels)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start * 1000.0,
            "dur": (span.end - span.start) * 1000.0,
            "pid": 1,
            "tid": tid_of(span.track),
            "args": args,
        })
    for instant in obs.instants:
        events.append({
            "name": instant.name,
            "cat": "instant",
            "ph": "i",
            "s": "t",
            "ts": instant.at * 1000.0,
            "pid": 1,
            "tid": tid_of(instant.track),
            "args": _json_safe(instant.labels),
        })
    header: List[Dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "args": {"name": "repro simulation"},
    }]
    for track, tid in tids.items():
        header.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": track},
        })
    other: Dict[str, Any] = {
        "spans": len(obs.spans),
        "open_spans": open_spans,
        "instants": len(obs.instants),
    }
    if metadata:
        other.update(_json_safe(metadata))
    return {
        "traceEvents": header + events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path: Union[str, Path], obs: Observability,
                       metadata: Optional[Dict[str, Any]] = None
                       ) -> Dict[str, Any]:
    """Serialise :func:`chrome_trace` to ``path``; returns the payload."""
    payload = chrome_trace(obs, metadata)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    return payload


def validate_chrome_trace(payload: Any) -> List[str]:
    """Return schema problems of a trace payload (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing event name")
        phase = event.get("ph")
        if phase not in _PHASES:
            problems.append(f"{where}: unsupported phase {phase!r}")
            continue
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: pid must be an integer")
        if phase in ("X", "i"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: ts must be a non-negative number")
            if not isinstance(event.get("tid"), int):
                problems.append(f"{where}: tid must be an integer")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur must be a non-negative number")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant scope must be t, p or g")
    return problems


def critical_path_report(obs: Observability,
                         limit: Optional[int] = None) -> str:
    """Per-root-span stage attribution as a fixed-width text table.

    Each line's stages sum to the root's measured duration; the footer
    aggregates the share of each stage over all closed roots.
    """
    roots = [span for span in obs.roots() if span.end is not None]
    header = (f"{'span':<28} {'outcome':<8} {'start':>9} {'total':>9} "
              + " ".join(f"{stage:>9}" for stage in STAGES))
    lines = [header, "-" * len(header)]
    totals = {stage: 0.0 for stage in STAGES}
    grand_total = 0.0
    shown = roots if limit is None else roots[:limit]
    for root in shown:
        stages = obs.critical_path(root)
        committed = root.labels.get("committed")
        outcome = ("commit" if committed
                   else "abort" if committed is not None else "-")
        label = root.labels.get("txn_id", root.name)
        lines.append(
            f"{str(label):<28} {outcome:<8} {root.start:>9.2f} "
            f"{root.duration:>9.3f} "
            + " ".join(f"{stages[stage]:>9.3f}" for stage in STAGES))
    for root in roots:
        stages = obs.critical_path(root)
        grand_total += root.duration
        for stage in STAGES:
            totals[stage] += stages[stage]
    if limit is not None and len(roots) > limit:
        lines.append(f"... {len(roots) - limit} more root spans elided "
                     f"(totals below cover all {len(roots)})")
    if grand_total > 0.0:
        shares = " ".join(
            f"{stage}={100.0 * totals[stage] / grand_total:.1f}%"
            for stage in STAGES)
        lines.append(f"aggregate over {len(roots)} roots, "
                     f"{grand_total:.1f} ms total: {shares}")
    else:
        lines.append("no closed root spans recorded")
    return "\n".join(lines)


def write_critical_path_report(path: Union[str, Path],
                               obs: Observability) -> str:
    """Write :func:`critical_path_report` next to a trace; returns the text."""
    text = critical_path_report(obs, limit=40)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text + "\n", encoding="utf-8")
    return text


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.obs.export --validate <trace.json>``"""
    parser = argparse.ArgumentParser(
        description="Validate an exported Chrome trace-event JSON file.")
    parser.add_argument("--validate", metavar="PATH", required=True,
                        help="trace file to check against the schema")
    arguments = parser.parse_args(argv)
    path = Path(arguments.validate)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"INVALID {path}: {error}")
        return 1
    problems = validate_chrome_trace(payload)
    if problems:
        print(f"INVALID {path}:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    events = len(payload["traceEvents"])
    print(f"OK {path}: {events} trace events")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
