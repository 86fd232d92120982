"""Span tracing driven by simulated time.

:class:`Observability` attaches to a :class:`~repro.sim.engine.Simulator`
(``sim.obs``) and records **spans** (named intervals with parent/child links)
and **instants** (point events).  Timestamps are the simulated clock, never
wall-clock time, so a trace is as deterministic as the run that produced it.

Spans can be registered under a **key** (any hashable, e.g.
``("txn", txn_id)``) so that instrumentation sites in different modules can
link to a parent without holding a reference to it.  The key map persists
after a span closes: a child that starts late (a WAL flush acknowledging a
transaction that already responded) still resolves its parent.  Re-using a
key overwrites the mapping — last writer wins — which is what retried
transactions want.

:meth:`Observability.critical_path` attributes a root span's duration to
stages.  All closed descendant spans with an attributable category are
clipped to the root's interval; a boundary sweep then assigns every
elementary sub-interval to the highest-priority active category
(``disk > network > cpu > protocol``) so overlapping children are not double
counted.  Whatever remains unattributed is reported as ``queue``, which makes
the stage breakdown sum to the root's duration by construction.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Hashable, List, Optional

#: Attribution order for the critical-path sweep: when several child spans
#: overlap, the sub-interval counts toward the highest-priority category.
CATEGORY_PRIORITY = ("disk", "network", "cpu", "protocol")

#: Stage keys of a critical-path breakdown, in reporting order.
STAGES = ("queue", "network", "disk", "cpu", "protocol")

_PRIORITY_RANK = {name: rank for rank, name in enumerate(CATEGORY_PRIORITY)}


class Span:
    """A named interval of simulated time with an optional parent link."""

    __slots__ = ("span_id", "name", "category", "track", "start", "end",
                 "parent_id", "labels", "root")

    def __init__(self, span_id: int, name: str, category: str, track: str,
                 start: float, parent_id: Optional[int],
                 labels: Optional[Dict[str, Any]], root: bool) -> None:
        self.span_id = span_id
        self.name = name
        self.category = category
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.parent_id = parent_id
        self.labels: Dict[str, Any] = labels if labels is not None else {}
        self.root = root

    @property
    def closed(self) -> bool:
        """True once :meth:`Observability.end` has stamped the span."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in milliseconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        end = f"{self.end:.3f}" if self.end is not None else "open"
        return (f"<Span #{self.span_id} {self.name!r} {self.category} "
                f"[{self.start:.3f}..{end}]>")


class Instant:
    """A point event on a track (rendered as an instant marker in Perfetto)."""

    __slots__ = ("name", "track", "at", "labels")

    def __init__(self, name: str, track: str, at: float,
                 labels: Optional[Dict[str, Any]]) -> None:
        self.name = name
        self.track = track
        self.at = at
        self.labels: Dict[str, Any] = labels if labels is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Instant {self.name!r} @{self.at:.3f}>"


class Observability:
    """Span and instant recorder for one simulator.

    Constructing one installs it as ``sim.obs``, which is the single flag
    every instrumentation site checks.  Recording only reads ``sim.now`` and
    appends to lists — no events are scheduled, no RNG streams are drawn —
    so enabling observability cannot change the simulation schedule.
    """

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._ids = itertools.count(1)
        self._by_id: Dict[int, Span] = {}
        self._by_key: Dict[Hashable, Span] = {}
        self._children: Dict[int, List[Span]] = {}
        sim.obs = self

    # -- recording ----------------------------------------------------------
    def begin(self, name: str, category: str = "protocol",
              track: str = "sim", parent: Any = None,
              key: Optional[Hashable] = None, root: bool = False,
              labels: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span starting now.

        ``parent`` may be a :class:`Span` or a registration key; an unknown
        key leaves the span parentless rather than failing, because the
        parent site may simply not be instrumented in this configuration.
        """
        parent_id: Optional[int] = None
        if parent is not None:
            if isinstance(parent, Span):
                parent_id = parent.span_id
            else:
                resolved = self._by_key.get(parent)
                if resolved is not None:
                    parent_id = resolved.span_id
        span = Span(next(self._ids), name, category, track, self.sim.now,
                    parent_id, labels, root)
        self.spans.append(span)
        self._by_id[span.span_id] = span
        if key is not None:
            self._by_key[key] = span
        if parent_id is not None:
            self._children.setdefault(parent_id, []).append(span)
        return span

    def end(self, span: Span,
            labels: Optional[Dict[str, Any]] = None) -> Span:
        """Close ``span`` now.  Idempotent: a second end keeps the first."""
        if span.end is None:
            span.end = self.sim.now
        if labels:
            span.labels.update(labels)
        return span

    def end_key(self, key: Hashable,
                labels: Optional[Dict[str, Any]] = None) -> Optional[Span]:
        """Close the span registered under ``key`` (no-op if unknown)."""
        span = self._by_key.get(key)
        if span is None:
            return None
        return self.end(span, labels)

    # repro: allow(unused-surface): tests find a transaction's spans with it
    def span_for(self, key: Hashable) -> Optional[Span]:
        """Return the span registered under ``key``, if any."""
        return self._by_key.get(key)

    def instant(self, name: str, track: str = "sim",
                labels: Optional[Dict[str, Any]] = None) -> Instant:
        """Record a point event at the current simulated time."""
        event = Instant(name, track, self.sim.now, labels)
        self.instants.append(event)
        return event

    # -- tree queries -------------------------------------------------------
    def roots(self) -> List[Span]:
        """Spans opened with ``root=True``, in start order."""
        return [span for span in self.spans if span.root]

    # repro: allow(unused-surface): tests read the span tree with it
    def children_of(self, span: Span) -> List[Span]:
        """Direct children of ``span``, in begin order."""
        return list(self._children.get(span.span_id, ()))

    def descendants(self, span: Span) -> List[Span]:
        """All transitive children of ``span`` (pre-order)."""
        found: List[Span] = []
        stack = list(reversed(self._children.get(span.span_id, ())))
        while stack:
            current = stack.pop()
            found.append(current)
            stack.extend(reversed(self._children.get(current.span_id, ())))
        return found

    # -- critical path ------------------------------------------------------
    def critical_path(self, root: Span) -> Dict[str, float]:
        """Attribute ``root``'s duration to stages; sums to the duration.

        Returns an ordered mapping over :data:`STAGES`.  Only closed
        descendants with a category in :data:`CATEGORY_PRIORITY` contribute;
        they are clipped to the root interval, and overlap resolves to the
        highest-priority category.  ``queue`` is the unattributed residual.
        """
        start = root.start
        end = root.end if root.end is not None else self.sim.now
        duration = end - start
        stages: Dict[str, float] = {stage: 0.0 for stage in STAGES}
        intervals = []
        for span in self.descendants(root):
            if span.category not in _PRIORITY_RANK or span.end is None:
                continue
            clipped_start = span.start if span.start > start else start
            clipped_end = span.end if span.end < end else end
            if clipped_end > clipped_start:
                intervals.append((clipped_start, clipped_end, span.category))
        attributed = 0.0
        if intervals:
            points = sorted({point for left, right, _ in intervals
                             for point in (left, right)})
            for left, right in zip(points, points[1:]):
                winner: Optional[str] = None
                rank = len(CATEGORY_PRIORITY)
                for span_left, span_right, category in intervals:
                    if span_left <= left and right <= span_right:
                        category_rank = _PRIORITY_RANK[category]
                        if category_rank < rank:
                            rank = category_rank
                            winner = category
                if winner is not None:
                    width = right - left
                    stages[winner] += width
                    attributed += width
        residual = duration - attributed
        stages["queue"] = residual if residual > 0.0 else 0.0
        return stages

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<Observability spans={len(self.spans)} "
                f"instants={len(self.instants)}>")
