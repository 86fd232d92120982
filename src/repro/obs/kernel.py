"""Kernel profiling over the ``Simulator.enable_trace()`` seam.

The kernel exposes one observation hook: ``enable_trace()`` records every
processed event as ``(time, queue key, event type name)``.  This module
turns such a trace into a per-event-type profile — how many events of each
class the kernel processed and how many went through the priority (interrupt)
lane.  The perf ledger's traced pass (``python benchmarks/ledger/run.py
--trace``, its ``ObserveHooks``) reads it to report each workload's event
shares, which is where a kernel change looks for what to attack next.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ..sim.events import NORMAL_BIAS


def profile_kernel_trace(trace: Sequence[Tuple[float, int, str]]
                         ) -> Dict[str, Any]:
    """Aggregate an event trace into per-event-type counts.

    Entries whose queue key is below :data:`~repro.sim.events.NORMAL_BIAS`
    travelled the priority lane (crash interrupts and the like).
    """
    by_type: Dict[str, List[int]] = {}
    priority_events = 0
    first_at = trace[0][0] if trace else 0.0
    last_at = trace[-1][0] if trace else 0.0
    for when, key, type_name in trace:
        bucket = by_type.get(type_name)
        if bucket is None:
            bucket = by_type[type_name] = [0, 0]
        bucket[0] += 1
        if key < NORMAL_BIAS:
            bucket[1] += 1
            priority_events += 1
    return {
        "total_events": len(trace),
        "priority_events": priority_events,
        "first_event_at_ms": first_at,
        "last_event_at_ms": last_at,
        "by_type": {
            name: {"events": events, "priority": priority}
            for name, (events, priority) in sorted(
                by_type.items(), key=lambda item: (-item[1][0], item[0]))
        },
    }

