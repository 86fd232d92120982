"""Per-shard load totals kept up to date on every access: the reference the
derived loads must match.

:class:`~repro.partition.routing.RoutingTable` counts accesses per position
only, and sums them per shard when :meth:`~repro.partition.routing.
RoutingTable.hottest_shard` or :meth:`~repro.partition.routing.RoutingTable.
coolest_group` is called.  :class:`IncrementalLoadTable` keeps the way the
loads were kept before: a running total per shard, bumped by every
:meth:`note_access` through a key -> (position, shard index) memo, and
re-attributed from the counters in one pass after every split or migration.
It also keeps its own copy of the cold-position compaction, so a change to
the real one shows as a difference in ``access_counts``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Tuple

from repro.partition.routing import MEMO_SPARE, RoutingTable


class IncrementalLoadTable(RoutingTable):
    """A routing table whose per-shard totals move with every access."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rebuild_access_index()

    def _bump(self) -> int:
        epoch = super()._bump()
        self._rebuild_access_index()
        return epoch

    def _rebuild_access_index(self) -> None:
        """Re-attribute the tracked positions to the current shard list."""
        totals = [0] * len(self._assignments)
        for position, count in self.access_counts.items():
            totals[bisect_right(self._bounds, position) - 1] += count
        self.shard_totals = totals
        self._note_cache: Dict[str, Tuple[int, int]] = {}

    def note_access(self, key: str) -> None:
        entry = self._note_cache.get(key)
        if entry is None:
            if len(self._note_cache) >= self.slots + MEMO_SPARE:
                self._note_cache.clear()
            position = self.position_of(key)
            entry = (position, bisect_right(self._bounds, position) - 1)
            self._note_cache[key] = entry
        position, shard_index = entry
        counts = self.access_counts
        count = counts.get(position)
        if count is None and len(counts) >= self.max_tracked_positions:
            self._compact_access_counts()
            counts = self.access_counts
            count = counts.get(position)
        counts[position] = 1 if count is None else count + 1
        self.shard_totals[shard_index] += 1

    def _compact_access_counts(self) -> None:
        keep = max(self.max_tracked_positions // 2, len(self._assignments))
        by_heat = sorted(self.access_counts,
                         key=self.access_counts.__getitem__, reverse=True)
        compacted = {position: self.access_counts[position]
                     for position in by_heat[:keep]}
        for position in by_heat[keep:]:
            shard = bisect_right(self._bounds, position) - 1
            anchor = self._assignments[shard].key_range.lo
            compacted[anchor] = (compacted.get(anchor, 0) +
                                 self.access_counts[position])
        self.access_counts = compacted

    def hottest_shard(self) -> int:
        return max(range(len(self.shard_totals)),
                   key=self.shard_totals.__getitem__)

    def coolest_group(self, exclude: Iterable[int] = ()) -> int:
        excluded = set(exclude)
        totals = {group_id: 0 for group_id in range(self.group_count)
                  if group_id not in excluded}
        if not totals:
            raise ValueError("every group is excluded")
        for index, assignment in enumerate(self._assignments):
            if assignment.group_id in totals:
                totals[assignment.group_id] += self.shard_totals[index]
        return min(sorted(totals), key=totals.__getitem__)
