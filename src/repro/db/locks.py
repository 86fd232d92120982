"""Strict two-phase locking with deadlock detection.

The lock manager implements the local concurrency control mentioned in
Sect. 2.2 of the paper ("the database component ... enforces the ACID
properties (in particular serialisability) locally").  It is used directly by
the lazy replication technique, whose delegate executes transactions under
ordinary 2PL, and by tests that exercise the local database in isolation.
The group-communication techniques use certification instead (deferred
updates), so they only take short apply-time latches.

Deadlocks are detected by cycle search in the waits-for graph; the youngest
transaction in the cycle is chosen as the victim.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set

from ..sim.engine import Simulator
from ..sim.events import Event
from .errors import DeadlockError


class LockMode(Enum):
    """Lock modes: shared for reads, exclusive for writes."""

    SHARED = "S"
    EXCLUSIVE = "X"


def _compatible(held: LockMode, requested: LockMode) -> bool:
    """Classic S/X compatibility matrix."""
    return held is LockMode.SHARED and requested is LockMode.SHARED


@dataclass
class _LockRequest:
    owner: str
    mode: LockMode
    event: Event
    granted: bool = False


@dataclass
class _LockEntry:
    """All holders and waiters for one lockable key."""

    holders: "OrderedDict[str, LockMode]" = field(default_factory=OrderedDict)
    queue: List[_LockRequest] = field(default_factory=list)


class LockManager:
    """A per-server lock table with FIFO queuing and deadlock detection."""

    def __init__(self, sim: Simulator, name: str = "locks") -> None:
        self.sim = sim
        self.name = name
        self._table: Dict[str, _LockEntry] = {}
        self._waits_for: Dict[str, Set[str]] = {}
        #: transaction id -> arrival order, used to pick deadlock victims.
        self._ages: Dict[str, int] = {}
        self._age_counter = 0
        #: Number of deadlocks resolved, for statistics.
        self.deadlock_count = 0

    # -- public API -------------------------------------------------------------
    def acquire(self, owner: str, key: str, mode: LockMode) -> Event:
        """Request ``mode`` on ``key`` for transaction ``owner``.

        Returns an event that fires when the lock is granted.  If granting
        would create a deadlock, the *youngest* transaction in the cycle is
        aborted: its pending request event fails with :class:`DeadlockError`.
        Lock upgrades (S already held, X requested) are supported.
        """
        if owner not in self._ages:
            self._age_counter += 1
            self._ages[owner] = self._age_counter

        entry = self._table.setdefault(key, _LockEntry())
        event = Event(self.sim)
        request = _LockRequest(owner=owner, mode=mode, event=event)

        if self._can_grant(entry, request):
            self._grant(entry, request)
            return event

        entry.queue.append(request)
        self._rebuild_waits_for()
        victim = self._find_deadlock_victim()
        if victim is not None:
            self.deadlock_count += 1
            self._abort_waiter(victim)
        return event

    def release_all(self, owner: str) -> None:
        """Release every lock held or requested by ``owner``."""
        for key in list(self._table):
            entry = self._table[key]
            entry.holders.pop(owner, None)
            entry.queue = [request for request in entry.queue
                           if request.owner != owner]
            self._promote_waiters(entry)
            if not entry.holders and not entry.queue:
                del self._table[key]
        self._ages.pop(owner, None)
        self._rebuild_waits_for()

    def holders(self, key: str) -> Dict[str, LockMode]:
        """Mapping of transaction id -> mode for current holders of ``key``."""
        entry = self._table.get(key)
        return dict(entry.holders) if entry else {}

    def waiting(self, key: str) -> List[str]:
        """Transaction ids queued (not yet granted) on ``key``."""
        entry = self._table.get(key)
        return [request.owner for request in entry.queue] if entry else []

    # repro: allow(unused-surface): tests read the locks crashes leave
    def holds(self, owner: str, key: str, mode: Optional[LockMode] = None) -> bool:
        """True if ``owner`` currently holds ``key`` (in ``mode`` if given)."""
        held = self.holders(key).get(owner)
        if held is None:
            return False
        return mode is None or held is mode or held is LockMode.EXCLUSIVE

    # -- grant logic ----------------------------------------------------------------
    def _can_grant(self, entry: _LockEntry, request: _LockRequest) -> bool:
        other_holders = {owner: mode for owner, mode in entry.holders.items()
                         if owner != request.owner}
        held_by_self = entry.holders.get(request.owner)
        if held_by_self is LockMode.EXCLUSIVE:
            return True
        if held_by_self is LockMode.SHARED and request.mode is LockMode.SHARED:
            return True
        # Upgrade or fresh grant: every *other* holder must be compatible, and
        # FIFO fairness requires no earlier incompatible waiter (unless this
        # is an upgrade, which jumps the queue to avoid the classic upgrade
        # deadlock with queued X requests of the same transaction).
        # repro: allow(ordering-hazard): all-must-be-compatible scan, order-free
        for mode in other_holders.values():
            if not _compatible(mode, request.mode):
                return False
        if held_by_self is None:
            for waiting in entry.queue:
                if waiting is request:
                    break
                if not _compatible(waiting.mode, request.mode) or \
                        not _compatible(request.mode, waiting.mode):
                    return False
        return True

    def _grant(self, entry: _LockEntry, request: _LockRequest) -> None:
        current = entry.holders.get(request.owner)
        if current is None or request.mode is LockMode.EXCLUSIVE:
            entry.holders[request.owner] = request.mode
        request.granted = True
        if not request.event.triggered:
            request.event.succeed(request.mode)

    def _promote_waiters(self, entry: _LockEntry) -> None:
        made_progress = True
        while made_progress:
            made_progress = False
            for request in list(entry.queue):
                if self._can_grant(entry, request):
                    entry.queue.remove(request)
                    self._grant(entry, request)
                    made_progress = True
                else:
                    break  # FIFO: do not overtake an ungrantable head

    # -- deadlock detection -------------------------------------------------------------
    def _rebuild_waits_for(self) -> None:
        graph: Dict[str, Set[str]] = {}
        # repro: allow(ordering-hazard): pure set-union aggregation, order-free
        for entry in self._table.values():
            for request in entry.queue:
                blockers = {owner for owner, mode in entry.holders.items()
                            if owner != request.owner and
                            not _compatible(mode, request.mode)}
                # Also wait for incompatible holders when upgrading.
                if not blockers and request.owner in entry.holders:
                    blockers = {owner for owner in entry.holders
                                if owner != request.owner}
                if blockers:
                    graph.setdefault(request.owner, set()).update(blockers)
        self._waits_for = graph

    def _find_deadlock_victim(self) -> Optional[str]:
        """Return the youngest transaction on a waits-for cycle, if any."""
        graph = self._waits_for
        visited: Set[str] = set()

        def explore(start: str, node: str, path: List[str]) -> Optional[List[str]]:
            for successor in graph.get(node, ()):
                if successor == start:
                    return path
                if successor in path:
                    continue
                found = explore(start, successor, path + [successor])
                if found is not None:
                    return found
            return None

        for node in graph:
            if node in visited:
                continue
            cycle = explore(node, node, [node])
            if cycle:
                return max(cycle, key=lambda txn: self._ages.get(txn, 0))
            visited.add(node)
        return None

    def _abort_waiter(self, owner: str) -> None:
        """Fail the pending request(s) of ``owner`` with a deadlock error."""
        # repro: allow(ordering-hazard): per-entry removal is independent, order-free
        for entry in self._table.values():
            for request in list(entry.queue):
                if request.owner == owner and not request.event.triggered:
                    entry.queue.remove(request)
                    request.event.fail(DeadlockError(owner))
        self._rebuild_waits_for()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<LockManager {self.name!r} keys={len(self._table)}>"
