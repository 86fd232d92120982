"""Epoch-versioned routing: the live ownership map of a partitioned cluster.

PR 1 froze the key -> replica-group mapping at cluster construction; this
module makes ownership a first-class piece of *versioned state*.  The map is
an ordered list of key-range -> group assignments stamped with an **epoch**
that is bumped by exactly two operations:

* :meth:`RoutingTable.split` — cut one shard in two (same owner, no data
  moves);
* :meth:`RoutingTable.migrate` — reassign a shard to another replica group.
  This is the *metadata* half only; the data movement (state-transfer copy,
  dual-write window, fence, force-logged epoch record) is driven by
  :meth:`repro.partition.cluster.PartitionedCluster.migrate`, which calls
  this method at the very end, after the new owner provably holds the data.

Routing decisions are made against an immutable :class:`RoutingSnapshot`, so
a transaction in flight keeps one consistent view while the table moves
underneath it.  When ownership did move under a transaction — its range is
fenced at submission, or the 2PC coordinator aborts it with
``xpartition-wrong-epoch`` — the submission path retries it against the
current epoch: the optimistic-routing discipline of systems with movable
shards.

Durability: every ownership change is serialised (:meth:`RoutingTable.
as_payload`) into an ``EPOCH`` write-ahead-log record.  A migration
force-logs the *new* map on the destination group's delegate **before**
installing it, so a crash mid-migration recovers to a consistent map:
before the record is durable the old owner still serves the range, after it
the new owner does.  :meth:`RoutingTable.recover` rebuilds the map from the
stable records of a restarted cluster.

Key positions: the table routes over an integer *position space*
``[0, slots)``.  The ``"range"`` strategy uses one slot per item (the
``item-<i>`` convention), so ranges are contiguous in the keyspace and
splits can land on skew-aware boundaries; the ``"hash"`` strategy keeps the
historical ``crc32(key) % partition_count`` placement (one slot per group),
which spreads load but makes shards indivisible (width-1 ranges cannot be
split — migrate whole slots instead).
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from ..db.items import ItemStore, item_keys
from ..db.wal import LogRecord, LogRecordType

#: Strategy names accepted by :meth:`RoutingTable.from_strategy`.
STRATEGIES = ("hash", "range")

#: Entries the routing memo caches (key -> position / group / shard) hold
#: beyond a table's ``slots`` before they clear.  A range table has one slot
#: per item, so every key of its population fits at any keyspace size; a
#: hash table (one slot per group) clears them every ``slots + MEMO_SPARE``
#: distinct keys.  The cap only keeps a per-key dict from growing without
#: bound (the concern ``max_tracked_positions`` addresses for the access
#: counters).  Eviction is a wholesale clear — the caches rebuild in O(1)
#: amortised per lookup.
MEMO_SPARE = 1 << 16


class WrongEpochError(RuntimeError):
    """A split cut into a range fenced by a live migration.

    Raised by :meth:`RoutingTable.split`.  A *submission* into a fenced
    range raises nothing: the submission path retries it
    (:meth:`~repro.partition.cluster.PartitionedCluster.submit`).
    """


def position_of_key(key: str, slots: int, strategy: str) -> int:
    """Map ``key`` to its routing position in ``[0, slots)``.

    Range strategy: the numeric suffix of the conventional ``item-<i>`` keys
    (clamped into the slot space); keys without one fall back to a stable
    hash so the mapping stays total.  Hash strategy: ``crc32(key) % slots``,
    bit-identical to the original :class:`HashPartitioner` placement.
    """
    if strategy == "range":
        _prefix, _sep, suffix = key.rpartition("-")
        if suffix.isdigit():
            return min(int(suffix), slots - 1)
    return zlib.crc32(key.encode("utf-8")) % slots



@lru_cache(maxsize=4)
def hash_slot_ranks(population_size: int, slots: int
                    ) -> Tuple[Tuple[int, ...], ...]:
    """The ranks of ``item-0 … item-(population_size-1)`` in each hash slot.

    Entry ``p`` lists, ascending, the ranks of the keys the hash strategy
    puts at position ``p``.  Positions depend only on the key and ``slots``,
    so one table per ``(population_size, slots)`` and process serves every
    epoch of every hash table of that size.
    """
    by_slot: List[List[int]] = [[] for _ in range(slots)]
    for rank, key in enumerate(item_keys(population_size)):
        by_slot[position_of_key(key, slots, "hash")].append(rank)
    return tuple(map(tuple, by_slot))

@dataclass(frozen=True)
class KeyRange:
    """A half-open interval ``[lo, hi)`` of key positions."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo < self.hi:
            raise ValueError(f"invalid key range [{self.lo}, {self.hi})")

    def contains(self, position: int) -> bool:
        """True if ``position`` falls inside the range."""
        return self.lo <= position < self.hi

    @property
    def width(self) -> int:
        """Number of positions covered."""
        return self.hi - self.lo

    @property
    def midpoint(self) -> int:
        """The default (unweighted) split position."""
        return self.lo + self.width // 2

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi})"


@dataclass(frozen=True)
class ShardAssignment:
    """One shard of the ownership map: a key range and its owning group."""

    key_range: KeyRange
    group_id: int

    def __repr__(self) -> str:
        return f"{self.key_range}->g{self.group_id}"


class RoutingSnapshot:
    """An immutable view of the ownership map at one epoch."""

    def __init__(self, epoch: int, assignments: Sequence[ShardAssignment],
                 slots: int, strategy: str, group_count: int,
                 position_cache: Optional[Dict[str, int]] = None) -> None:
        self.epoch = epoch
        self.assignments: Tuple[ShardAssignment, ...] = tuple(assignments)
        self.slots = slots
        self.strategy = strategy
        #: Number of replica groups (NOT shards; shards can outnumber groups
        #: after splits).
        self.partition_count = group_count
        self._bounds = [assignment.key_range.lo
                        for assignment in self.assignments]
        #: key -> position memo.  Positions depend only on (slots, strategy),
        #: so a :class:`RoutingTable` shares one cache across all its
        #: snapshots; a standalone snapshot gets its own.
        self._position_cache: Dict[str, int] = (
            {} if position_cache is None else position_cache)
        #: key -> owning-group memo, valid for this epoch only (per snapshot).
        self._group_cache: Dict[str, int] = {}

    # -- lookups ------------------------------------------------------------------------
    def position_of(self, key: str) -> int:
        """The routing position of ``key`` (memoized: keys never re-hash)."""
        cache = self._position_cache
        position = cache.get(key)
        if position is None:
            if len(cache) >= self.slots + MEMO_SPARE:
                cache.clear()
            position = cache[key] = position_of_key(key, self.slots,
                                                    self.strategy)
        return position

    def partition_of(self, key: str) -> int:
        """Id of the replica group owning ``key`` (memoized per snapshot)."""
        cache = self._group_cache
        group_id = cache.get(key)
        if group_id is None:
            if len(cache) >= self.slots + MEMO_SPARE:
                cache.clear()
            group_id = cache[key] = self.assignments[
                bisect_right(self._bounds, self.position_of(key)) - 1].group_id
        return group_id

    def partitions_of(self, keys: Iterable[str]) -> List[int]:
        """Sorted ids of all groups touched by ``keys``.

        The dominant caller is transaction classification, where almost
        every program touches exactly one group — that case allocates one
        single-element list and never sorts.
        """
        partition_of = self.partition_of
        first: Optional[int] = None
        extra = None
        for key in keys:
            group_id = partition_of(key)
            if group_id == first:
                continue
            if first is None:
                first = group_id
            elif extra is None:
                extra = {first, group_id}
            else:
                extra.add(group_id)
        if first is None:
            return []
        if extra is None:
            return [first]
        return sorted(extra)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<RoutingSnapshot epoch={self.epoch} "
                f"shards={len(self.assignments)}>")


class RoutingTable:
    """The epoch-versioned, mutable ownership map of a partitioned cluster."""

    def __init__(self, assignments: Sequence[ShardAssignment], slots: int,
                 strategy: str, group_count: int, epoch: int = 0) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown routing strategy {strategy!r}; expected one of "
                f"{STRATEGIES}")
        if group_count < 1:
            raise ValueError(f"group count must be >= 1, got {group_count!r}")
        self.slots = slots
        self.strategy = strategy
        self.group_count = group_count
        self._assignments: List[ShardAssignment] = sorted(
            assignments, key=lambda assignment: assignment.key_range.lo)
        self._validate_cover()
        self._epoch = epoch
        self._snapshot: Optional[RoutingSnapshot] = None
        #: key -> position memo shared with every snapshot of this table
        #: (positions depend only on the fixed slots/strategy pair, so the
        #: memo survives epoch bumps).
        self._position_cache: Dict[str, int] = {}
        #: Ranges currently write-fenced by a live migration.
        self._fenced: List[KeyRange] = []
        #: Per-position access counters feeding the skew-aware split points.
        self.access_counts: Dict[int, int] = {}
        #: Cap on distinct tracked positions; beyond it the coldest
        #: positions are folded into their shard's lo position so wide
        #: keyspaces cannot grow the counter dict without bound.
        self.max_tracked_positions: int = 4096
        self._rebuild_access_index()

    # -- construction -------------------------------------------------------------------
    @classmethod
    def from_strategy(cls, strategy: str, group_count: int,
                      item_count: int = 0) -> "RoutingTable":
        """Build the epoch-0 table reproducing the seed partitioner exactly."""
        if strategy == "hash":
            assignments = [
                ShardAssignment(KeyRange(group_id, group_id + 1), group_id)
                for group_id in range(group_count)]
            return cls(assignments, slots=group_count, strategy="hash",
                       group_count=group_count)
        if strategy == "range":
            if item_count < group_count:
                raise ValueError(
                    f"cannot range-partition {item_count} items into "
                    f"{group_count} partitions")
            bounds = [-(-group_id * item_count // group_count)
                      for group_id in range(group_count)] + [item_count]
            assignments = [
                ShardAssignment(KeyRange(bounds[group_id],
                                         bounds[group_id + 1]), group_id)
                for group_id in range(group_count)]
            return cls(assignments, slots=item_count, strategy="range",
                       group_count=group_count)
        raise ValueError(
            f"unknown routing strategy {strategy!r}; expected one of "
            f"{STRATEGIES}")

    @classmethod
    def recover(cls, records: Iterable[LogRecord], strategy: str,
                group_count: int, item_count: int = 0) -> "RoutingTable":
        """Rebuild the ownership map a restarted cluster would serve with.

        Scans stable write-ahead-log ``records`` for ``EPOCH`` records and
        installs the highest durable epoch; with no durable epoch record the
        map falls back to the epoch-0 strategy layout.  This is the recovery
        contract of online migration: the epoch bump is force-logged before
        the new map is served, so a crash before the flush recovers to the
        old owner and a crash after it to the new one — never to a mix.
        """
        best: Optional[Dict[str, object]] = None
        for record in records:
            if record.record_type is not LogRecordType.EPOCH:
                continue
            payload = record.payload
            if best is None or payload["epoch"] > best["epoch"]:
                best = payload
        if best is None:
            return cls.from_strategy(strategy, group_count, item_count)
        assignments = [
            ShardAssignment(KeyRange(int(lo), int(hi)), int(group_id))
            for lo, hi, group_id in best["assignments"]]
        return cls(assignments, slots=int(best["slots"]),
                   strategy=str(best["strategy"]), group_count=group_count,
                   epoch=int(best["epoch"]))

    # -- invariants ---------------------------------------------------------------------
    def _validate_cover(self) -> None:
        if not self._assignments:
            raise ValueError("the routing table needs at least one shard")
        expected = 0
        for assignment in self._assignments:
            if assignment.key_range.lo != expected:
                raise ValueError(
                    f"assignments do not tile the position space: gap or "
                    f"overlap at position {expected}")
            if not 0 <= assignment.group_id < self.group_count:
                raise ValueError(
                    f"assignment {assignment!r} names an unknown group")
            expected = assignment.key_range.hi
        if expected != self.slots:
            raise ValueError(
                f"assignments cover [0, {expected}) but the position space "
                f"is [0, {self.slots})")

    # -- views --------------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The current ownership-map version."""
        return self._epoch

    @property
    def partition_count(self) -> int:
        """Number of replica groups."""
        return self.group_count

    @property
    def assignments(self) -> Tuple[ShardAssignment, ...]:
        """The current ordered shard list."""
        return tuple(self._assignments)

    def snapshot(self) -> RoutingSnapshot:
        """The immutable view of the current epoch (cached until a bump)."""
        if self._snapshot is None or self._snapshot.epoch != self._epoch:
            self._snapshot = RoutingSnapshot(
                self._epoch, self._assignments, self.slots, self.strategy,
                self.group_count, position_cache=self._position_cache)
        return self._snapshot

    # -- lookups (delegate to the current snapshot) -------------------------------------
    #: The snapshot's memoized lookup, shared as is: a table carries the
    #: same ``slots``, ``strategy`` and position cache as its snapshots.
    position_of = RoutingSnapshot.position_of

    def partition_of(self, key: str) -> int:
        """Id of the replica group currently owning ``key``."""
        return self.snapshot().partition_of(key)

    def selector(self, population_size: int,
                 key_ranges: Iterable[KeyRange]
                 ) -> Callable[[Sequence], Iterable]:
        """A picker of the entries whose keys lie in ``key_ranges``.

        The picker takes any sequence with one entry per key of the
        population ``item-0 … item-(population_size-1)``, in key order (the
        keys themselves, or one weight per rank), and yields the entries of
        the keys ``key_ranges`` cover, in key order; ``key_ranges`` ascend.
        No key is routed, since a table's positions never change: the range
        strategy puts ``item-<i>`` at position ``min(i, slots - 1)``, so a
        range is one slice; the hash strategy merges the ranges' slots of
        :func:`hash_slot_ranks` back into key order once per call, and every
        sequence the picker takes reuses the merged ranks.
        """
        if self.strategy == "range":
            # The last shard also holds the keys clamped onto its last slot.
            cuts = [slice(key_range.lo,
                          None if key_range.hi == self.slots else key_range.hi)
                    for key_range in key_ranges]
            return lambda values: chain.from_iterable(map(values.__getitem__,
                                                          cuts))
        by_slot = hash_slot_ranks(population_size, self.slots)
        ranks = sorted(chain.from_iterable(
            by_slot[position] for key_range in key_ranges
            for position in range(key_range.lo, key_range.hi)))
        return lambda values: map(values.__getitem__, ranks)

    def keys_in(self, store: ItemStore, key_range: KeyRange) -> List[str]:
        """The keys of ``store`` that ``key_range`` covers, in creation order.

        The population's share is one :meth:`selector` pick; only the keys
        :meth:`ItemStore.create` added are routed, one by one.
        """
        population = store.population
        return [*self.selector(len(population), [key_range])(population),
                *(key for key in store.created_keys()
                  if key_range.contains(self.position_of(key)))]

    # -- shard addressing ---------------------------------------------------------------
    def range_of(self, shard: Union[int, KeyRange]) -> KeyRange:
        """Normalise ``shard`` (index or exact range) to its key range."""
        if isinstance(shard, KeyRange):
            for assignment in self._assignments:
                if assignment.key_range == shard:
                    return shard
            raise ValueError(f"no shard with range {shard!r}")
        return self._assignments[shard].key_range

    def shard_index(self, key_range: KeyRange) -> int:
        """Index of the shard whose range is exactly ``key_range``."""
        for index, assignment in enumerate(self._assignments):
            if assignment.key_range == key_range:
                return index
        raise ValueError(f"no shard with range {key_range!r}")

    def owner_of_range(self, key_range: KeyRange) -> int:
        """Owning group of the shard whose range is exactly ``key_range``."""
        return self._assignments[self.shard_index(key_range)].group_id

    # -- mutations ----------------------------------------------------------------------
    def _bump(self) -> int:
        self._epoch += 1
        self._snapshot = None
        self._rebuild_access_index()
        return self._epoch

    def _check_not_fenced(self, key_range: KeyRange) -> None:
        for fenced in self._fenced:
            if fenced.lo < key_range.hi and key_range.lo < fenced.hi:
                raise WrongEpochError(
                    f"range {key_range!r} overlaps the fenced range "
                    f"{fenced!r} of a live migration")

    def split(self, shard: Union[int, KeyRange],
              at: Optional[int] = None) -> int:
        """Cut one shard in two at position ``at`` (default: the midpoint).

        Metadata only — both halves keep the owner, so no data moves.
        Returns the new epoch.
        """
        key_range = self.range_of(shard)
        self._check_not_fenced(key_range)
        if key_range.width < 2:
            raise ValueError(f"cannot split the width-1 range {key_range!r}")
        position = key_range.midpoint if at is None else at
        if not key_range.lo < position < key_range.hi:
            raise ValueError(
                f"split position {position} outside the open interval "
                f"({key_range.lo}, {key_range.hi})")
        index = self.shard_index(key_range)
        owner = self._assignments[index].group_id
        self._assignments[index:index + 1] = [
            ShardAssignment(KeyRange(key_range.lo, position), owner),
            ShardAssignment(KeyRange(position, key_range.hi), owner)]
        return self._bump()

    def migrate(self, shard: Union[int, KeyRange],
                destination_group: int) -> int:
        """Reassign one shard to ``destination_group`` (metadata half only).

        Callers that move *live data* must run the cluster's migration
        protocol (copy, dual-write, fence, force-logged epoch record) and
        call this last; calling it directly on a serving cluster abandons
        the committed state of the range on its old owner.  Returns the new
        epoch.
        """
        key_range = self.range_of(shard)
        if not 0 <= destination_group < self.group_count:
            raise ValueError(f"unknown group {destination_group!r}")
        index = self.shard_index(key_range)
        if self._assignments[index].group_id == destination_group:
            raise ValueError(
                f"shard {key_range!r} already lives on group "
                f"{destination_group}")
        self._assignments[index] = ShardAssignment(key_range,
                                                   destination_group)
        return self._bump()

    # -- fencing ------------------------------------------------------------------------
    @property
    def has_fences(self) -> bool:
        """True while any range is write-fenced by a migration."""
        return bool(self._fenced)

    def fence(self, key_range: KeyRange) -> None:
        """Fence ``key_range``: new submissions touching it are refused."""
        if key_range not in self._fenced:
            self._fenced.append(key_range)

    def unfence(self, key_range: KeyRange) -> None:
        """Lift the fence on ``key_range`` (idempotent)."""
        if key_range in self._fenced:
            self._fenced.remove(key_range)

    def is_fenced(self, keys: Iterable[str]) -> bool:
        """True if any of ``keys`` falls inside a fenced range."""
        if not self._fenced:
            return False
        for key in keys:
            position = self.position_of(key)
            for fenced in self._fenced:
                if fenced.contains(position):
                    return True
        return False

    # -- access accounting (feeds the skew-aware rebalancer) ----------------------------
    def _rebuild_access_index(self) -> None:
        """Recompute the per-shard totals after the shard list changed.

        :meth:`note_access` maintains the totals incrementally (O(log shards)
        per access); split and migrate re-attribute the tracked
        positions to the new shard list in one pass.
        """
        self._bounds = [assignment.key_range.lo
                        for assignment in self._assignments]
        totals = [0] * len(self._assignments)
        for position, count in self.access_counts.items():
            totals[bisect_right(self._bounds, position) - 1] += count
        self._shard_totals = totals
        #: key -> (position, shard index) memo for :meth:`note_access`,
        #: valid until the shard list changes again.
        self._note_cache: Dict[str, Tuple[int, int]] = {}

    def note_access(self, key: str) -> None:
        """Record one access to ``key`` for load accounting."""
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
            # Compaction replaces the dict (and may fold mass onto this very
            # position, a shard's lo); count into the new one.
            counts = self.access_counts
            count = counts.get(position)
        counts[position] = 1 if count is None else count + 1
        self._shard_totals[shard_index] += 1

    def note_keys(self, keys: Iterable[str]) -> None:
        """Record one access per key of ``keys``."""
        note_access = self.note_access
        for key in keys:
            note_access(key)

    def _compact_access_counts(self) -> None:
        """Fold the coldest tracked positions into their shard's lo position.

        Keeps the dict at ~half :attr:`max_tracked_positions` entries while
        preserving every shard's total exactly; only the position-level
        resolution of the folded (cold, low-mass) tail is lost, which can
        bias :meth:`hot_split_position` slightly toward the range head.
        """
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
        """Index of the shard with the most observed accesses."""
        return max(range(len(self._shard_totals)),
                   key=self._shard_totals.__getitem__)

    def coolest_group(self, exclude: Iterable[int] = ()) -> int:
        """Group with the fewest observed accesses (ties -> lowest id)."""
        excluded = set(exclude)
        totals = {group_id: 0 for group_id in range(self.group_count)
                  if group_id not in excluded}
        if not totals:
            raise ValueError("every group is excluded")
        for index, assignment in enumerate(self._assignments):
            if assignment.group_id in totals:
                totals[assignment.group_id] += self._shard_totals[index]
        return min(sorted(totals), key=totals.__getitem__)

    def hot_split_position(self, shard: Union[int, KeyRange]
                           ) -> Optional[int]:
        """The access-weighted median position of one shard.

        Splitting there leaves ~half the shard's observed load on each side
        — the skew-aware boundary that un-skews a Zipf head.  Returns None
        when the shard has no recorded accesses (fall back to the midpoint).
        """
        key_range = self.range_of(shard)
        positions = sorted(position
                           for position in self.access_counts
                           if key_range.contains(position))
        if not positions:
            return None
        total = sum(self.access_counts[position] for position in positions)
        running = 0
        for position in positions:
            running += self.access_counts[position]
            if running * 2 >= total:
                # A maximally skewed shard puts the weighted median on its
                # last position; clamp to the largest legal split point
                # instead of abandoning the load signal for the midpoint.
                candidate = min(position + 1, key_range.hi - 1)
                if key_range.lo < candidate:
                    return candidate
                break
        midpoint = key_range.midpoint
        return midpoint if key_range.lo < midpoint < key_range.hi else None

    # -- serialisation ------------------------------------------------------------------
    def as_payload(self) -> Dict[str, object]:
        """The WAL-record payload describing the current map."""
        return self.payload_for(self._assignments, self._epoch)

    def payload_for(self, assignments: Sequence[ShardAssignment],
                    epoch: int) -> Dict[str, object]:
        """A WAL-record payload for an explicit (epoch, assignments) pair."""
        return {
            "epoch": epoch,
            "slots": self.slots,
            "strategy": self.strategy,
            "assignments": [
                [assignment.key_range.lo, assignment.key_range.hi,
                 assignment.group_id]
                for assignment in assignments],
        }

    def payload_after_migrate(self, key_range: KeyRange,
                              destination_group: int) -> Dict[str, object]:
        """The payload the map will have once ``key_range`` moved.

        Used to force-log the *new* map before installing it (write-ahead
        discipline): the record is what recovery serves, so it must describe
        the post-bump state.
        """
        index = self.shard_index(key_range)
        assignments = list(self._assignments)
        assignments[index] = ShardAssignment(key_range, destination_group)
        return self.payload_for(assignments, self._epoch + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<RoutingTable epoch={self._epoch} "
                f"shards={len(self._assignments)} groups={self.group_count}>")
