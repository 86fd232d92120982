"""Epoch-versioned routing: the live ownership map of a partitioned cluster.

PR 1 froze the key -> replica-group mapping at cluster construction; this
module makes ownership a first-class piece of *versioned state*.  The map is
an ordered list of key-range -> group assignments stamped with an **epoch**
that is bumped by exactly three operations:

* :meth:`RoutingTable.split` — cut one shard in two (same owner, no data
  moves);
* :meth:`RoutingTable.merge` — rejoin two adjacent shards of one owner;
* :meth:`RoutingTable.migrate` — reassign a shard to another replica group.
  This is the *metadata* half only; the data movement (state-transfer copy,
  dual-write window, fence, force-logged epoch record) is driven by
  :meth:`repro.partition.cluster.PartitionedCluster.migrate`, which calls
  this method at the very end, after the new owner provably holds the data.

Routing decisions are made against an immutable :class:`RoutingSnapshot`, so
a transaction in flight keeps one consistent view while the table moves
underneath it.  When ownership did move under a transaction, the submission
path raises (or the 2PC coordinator aborts with) :class:`WrongEpochError` and
the client retries against the current epoch — the optimistic-routing
discipline of systems with movable shards.

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..db.wal import LogRecord, LogRecordType

#: Strategy names accepted by :meth:`RoutingTable.from_strategy`.
STRATEGIES = ("hash", "range")

#: Entry cap shared by the routing memo caches (key -> position / group /
#: shard).  Far above any configured item count, so in practice the caches
#: never evict; the cap only guards pathological keyspaces from growing a
#: per-key dict without bound (the same concern ``max_tracked_positions``
#: addresses for the access counters).  Eviction is a wholesale clear — the
#: caches rebuild in O(1) amortised per lookup.
MEMO_CACHE_LIMIT = 1 << 16

#: Multiplier :meth:`RoutingTable.roll_window` applies to every access
#: counter when a controller closes a window.
DECAY_FACTOR = 0.5


class WrongEpochError(RuntimeError):
    """A transaction was routed against a stale or fenced ownership map.

    Raised synchronously by the submission path when a touched range is
    fenced by a live migration, and reported as the
    ``xpartition-wrong-epoch`` abort reason when the 2PC coordinator detects
    at vote collection that ownership moved under a prepared transaction.
    The remedy is always the same: take a fresh snapshot and resubmit.
    """

    def __init__(self, message: str, epoch_seen: Optional[int] = None,
                 epoch_now: Optional[int] = None) -> None:
        super().__init__(message)
        self.epoch_seen = epoch_seen
        self.epoch_now = epoch_now


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
            if len(cache) >= MEMO_CACHE_LIMIT:
                cache.clear()
            position = cache[key] = position_of_key(key, self.slots,
                                                    self.strategy)
        return position

    def shard_index_of(self, key: str) -> int:
        """Index (into :attr:`assignments`) of the shard owning ``key``."""
        return bisect_right(self._bounds, self.position_of(key)) - 1

    def shard_of(self, key: str) -> ShardAssignment:
        """The shard assignment owning ``key``."""
        return self.assignments[self.shard_index_of(key)]

    def partition_of(self, key: str) -> int:
        """Id of the replica group owning ``key`` (memoized per snapshot)."""
        cache = self._group_cache
        group_id = cache.get(key)
        if group_id is None:
            if len(cache) >= MEMO_CACHE_LIMIT:
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

    def partition_keys(self, keys: Iterable[str]) -> Dict[int, List[str]]:
        """Group ``keys`` by owning group, preserving order within each."""
        partition_of = self.partition_of
        grouped: Dict[int, List[str]] = {}
        for key in keys:
            group_id = partition_of(key)
            bucket = grouped.get(group_id)
            if bucket is None:
                grouped[group_id] = [key]
            else:
                bucket.append(key)
        return grouped

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
        #: Counters accumulate until a controller rolls windows
        #: (:meth:`roll_window` decays each by :data:`DECAY_FACTOR`), so the
        #: hot-spot queries then reflect recent load, not all-time totals.
        self.access_counts: Dict[int, int] = {}
        #: Cap on distinct tracked positions; beyond it the coldest
        #: positions are folded into their shard's lo position so wide
        #: keyspaces cannot grow the counter dict without bound.
        self.max_tracked_positions: int = 4096
        #: Number of decay windows rolled so far.
        self.windows_rolled = 0
        self._rebuild_access_index()
        #: Every epoch the table has been through: (epoch, assignments).
        self.history: List[Tuple[int, Tuple[ShardAssignment, ...]]] = [
            (epoch, tuple(self._assignments))]

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
    def shard_count(self) -> int:
        """Number of shards (>= group count after splits)."""
        return len(self._assignments)

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
    def position_of(self, key: str) -> int:
        """The routing position of ``key`` (memoized; see the snapshot)."""
        cache = self._position_cache
        position = cache.get(key)
        if position is None:
            if len(cache) >= MEMO_CACHE_LIMIT:
                cache.clear()
            position = cache[key] = position_of_key(key, self.slots,
                                                    self.strategy)
        return position

    def partition_of(self, key: str) -> int:
        """Id of the replica group currently owning ``key``."""
        return self.snapshot().partition_of(key)

    def partition_keys(self, keys: Iterable[str]) -> Dict[int, List[str]]:
        """Group ``keys`` by current owner, preserving order within each."""
        return self.snapshot().partition_keys(keys)

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
        self.history.append((self._epoch, tuple(self._assignments)))
        return self._epoch

    def _check_not_fenced(self, key_range: KeyRange) -> None:
        for fenced in self._fenced:
            if fenced.lo < key_range.hi and key_range.lo < fenced.hi:
                raise WrongEpochError(
                    f"range {key_range!r} overlaps the fenced range "
                    f"{fenced!r} of a live migration",
                    epoch_seen=self._epoch, epoch_now=self._epoch)

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

    def merge(self, left_shard: Union[int, KeyRange]) -> int:
        """Rejoin ``left_shard`` with its right neighbour (same owner only).

        Metadata only.  Returns the new epoch.
        """
        key_range = self.range_of(left_shard)
        index = self.shard_index(key_range)
        if index + 1 >= len(self._assignments):
            raise ValueError(f"shard {key_range!r} has no right neighbour")
        left, right = self._assignments[index], self._assignments[index + 1]
        self._check_not_fenced(left.key_range)
        self._check_not_fenced(right.key_range)
        if left.group_id != right.group_id:
            raise ValueError(
                f"cannot merge {left!r} with {right!r}: different owners "
                f"(migrate one first)")
        self._assignments[index:index + 2] = [
            ShardAssignment(KeyRange(left.key_range.lo, right.key_range.hi),
                            left.group_id)]
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

    def install(self, assignments: Sequence[ShardAssignment],
                epoch: int) -> None:
        """Install a recovered or force-logged map wholesale.

        ``epoch`` must move forward; installing a stale map is the exact
        failure the epoch discipline exists to prevent.
        """
        if epoch <= self._epoch:
            raise WrongEpochError(
                f"cannot install epoch {epoch}: table is already at "
                f"{self._epoch}", epoch_seen=epoch, epoch_now=self._epoch)
        self._assignments = sorted(
            assignments, key=lambda assignment: assignment.key_range.lo)
        self._validate_cover()
        self._epoch = epoch
        self._snapshot = None
        self._rebuild_access_index()
        self.history.append((epoch, tuple(self._assignments)))

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
        per access); split/merge/migrate/install/decay re-attribute the
        tracked positions to the new shard list in one pass.
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
            if len(self._note_cache) >= MEMO_CACHE_LIMIT:
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

    def roll_window(self) -> None:
        """Close one accounting window: decay every counter by
        :data:`DECAY_FACTOR`.

        Counters that decay to zero are dropped, so cold positions stop
        being tracked; the per-shard totals are rebuilt to match.  With the
        factor 0.5 the totals converge to an exponentially weighted view of
        roughly the last two windows of traffic.
        """
        self.access_counts = {
            position: decayed
            for position, count in self.access_counts.items()
            if (decayed := int(count * DECAY_FACTOR)) > 0}
        self.windows_rolled += 1
        self._rebuild_access_index()

    def shard_accesses(self) -> List[int]:
        """Per-shard observed accesses, in :attr:`assignments` order."""
        return list(self._shard_totals)

    def access_count_of(self, key_range: KeyRange) -> int:
        """Observed accesses landing in ``key_range``.

        A range matching a current shard exactly reads the cached total;
        an arbitrary range falls back to scanning the tracked positions.
        """
        try:
            return self._shard_totals[self.shard_index(key_range)]
        except ValueError:
            return sum(count
                       for position, count in self.access_counts.items()
                       if key_range.contains(position))

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
