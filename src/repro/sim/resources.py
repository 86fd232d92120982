"""Queued resources and inter-process channels for the simulation kernel.

Three primitives cover everything the replicated-database model needs:

* :class:`Resource` — a server (or pool of identical servers) with a FIFO
  request queue.  CPUs and disks of a database server are resources.
* :class:`Store` — an unbounded FIFO buffer of items with blocking ``get``.
  Network endpoints and intra-server mailboxes are stores.  A store can
  instead be *served* (:meth:`Store.serve`): each item is charged to a
  resource and handed to a callback, with no process in between.
* :class:`Gate` — a level-triggered condition processes can wait on
  (e.g. "the commit record of transaction *t* has reached stable storage").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, TYPE_CHECKING

from heapq import heappush

from .errors import SimulationError
from .events import NORMAL_BIAS, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import Simulator


class Request(Event):
    """One charge on a :class:`Resource`: a slot held for a fixed duration.

    The event is processed when the hold *ends*.  Its first callback hands
    the slot back (busy time accrued, next waiter granted), so by the time
    the process that yielded it resumes the slot is already free.
    """

    __slots__ = ("resource", "duration", "granted_at")

    def __init__(self, resource: "Resource", duration: float) -> None:
        # Inlined Event.__init__ — one request per charge makes this a hot
        # allocation under saturation.
        self.sim = resource.sim
        self._cb = resource._on_done
        self.callbacks = None
        self._value = None
        self._ok = True
        self._defused = False
        self._processed = False
        self.resource = resource
        self.duration = duration
        #: Simulated time the slot was granted (None while queued).
        self.granted_at: Optional[float] = None

    def cancel(self) -> None:
        """Give the charge up at this instant.

        A held slot is handed back now (busy time up to now, next waiter
        granted) and a queued charge leaves the queue; the completion entry
        of a held charge stays on the heap and pops inert.  Called when the
        process waiting on the charge is killed or interrupted; a no-op on a
        charge that is already over.
        """
        if self._cb is None:
            return
        self._cb = None
        if self.granted_at is None:
            self.resource._waiting.remove(self)
        else:
            self.resource._release(self)


class Resource:
    """A FIFO resource with a fixed number of identical slots.

    Usage inside a process — one event per charge, yielded once::

        yield cpu.use(service_time)
    """

    __slots__ = ("sim", "capacity", "name", "_users", "_waiting", "_on_done",
                 "granted_count", "busy_time")

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._users: List[Request] = []
        self._waiting: Deque[Request] = deque()
        #: The first callback of every charge, bound once (a bound method
        #: per charge would be an allocation on the hottest path).
        self._on_done = self._release
        #: Total number of requests ever granted (for utilisation stats).
        self.granted_count = 0
        #: Accumulated (simulated) busy time across all slots.
        self.busy_time = 0.0

    # -- introspection -------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    # -- charging ------------------------------------------------------------
    def use(self, duration: float) -> Request:
        """Hold one slot for ``duration`` milliseconds.

        Returns the event that fires when the hold is over; a free slot
        makes that a single queue entry at ``now + duration``, otherwise
        the charge waits its turn in FIFO order first.
        """
        if duration < 0:
            raise ValueError(f"negative hold duration: {duration!r}")
        request = Request(self, duration)
        if len(self._users) < self.capacity:
            self._hold(request)
        else:
            self._waiting.append(request)
        return request

    def _hold(self, request: Request) -> None:
        """Grant a slot now and schedule the end of the hold."""
        sim = self.sim
        self._users.append(request)
        request.granted_at = now = sim._now
        self.granted_count += 1
        sim._sequence += 1
        heappush(sim._queue, (now + request.duration,
                              NORMAL_BIAS + sim._sequence, request))

    def _release(self, request: Request) -> None:
        """Hand ``request``'s slot back and grant it to the oldest waiter."""
        self._users.remove(request)
        self.busy_time += self.sim._now - request.granted_at
        if self._waiting:
            self._hold(self._waiting.popleft())

    def cancel_all(self) -> List[Request]:
        """Fail every held and every waiting charge; return the waiting ones.

        Used when the server owning the resource crashes: in-flight disk and
        CPU operations simply vanish with the server.  Busy time accrues up
        to the crash.  A process that survives the crash (one not hosted on
        the node) gets a :class:`SimulationError` from its charge: a held
        charge's completion entry is still on the heap and delivers it (it
        pops inert for a killed process); a waiting charge has no entry, so
        the caller schedules the returned ones that still have a waiter
        (:meth:`repro.network.node.Node.crash`).
        """
        now = self.sim._now
        crashed = SimulationError(f"charge on {self.name!r} cancelled by a "
                                  f"crash")
        for request in self._users:
            self.busy_time += now - request.granted_at
        queued = list(self._waiting)
        for request in self._users + queued:
            request._cb = None
            request._ok = False
            request._value = crashed
            request._defused = True
        self._users.clear()
        self._waiting.clear()
        return queued

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<Resource {self.name!r} {self.in_use}/{self.capacity} busy,"
                f" {self.queue_length} queued>")


class Store:
    """Unbounded FIFO channel of items with blocking ``get``.

    A store is drained either by processes that ``yield store.get()`` or,
    once :meth:`serve` is called, by a handler: every item holds one slot of
    a resource for a cost and is then passed to the handler.  Serving is the
    loop ``item = yield store.get(); yield resource.use(cost()); handler(item)``
    without the process: a hand-off takes no simulated time, so it takes no
    kernel event, and the only entry an item puts on the heap is its charge.
    """

    __slots__ = ("sim", "name", "_items", "_getters", "put_count",
                 "_resource", "_cost", "_handler", "_charge", "_on_charged")

    def __init__(self, sim: "Simulator", name: Optional[str] = None) -> None:
        self.sim = sim
        self.name = name or "store"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        #: Count of items ever put, for statistics.
        self.put_count = 0
        self._resource: Optional[Resource] = None
        self._cost: Optional[Callable[[], float]] = None
        #: The serving callback; ``None`` while the store is a plain buffer.
        self._handler: Optional[Callable[[Any], None]] = None
        #: The charge of the item at the head of a served store (which stays
        #: buffered until its handler is called); ``None`` while idle.
        self._charge: Optional[Request] = None
        self._on_charged = self._charged

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the oldest waiting getter, if any.

        On a served store an idle server starts the item's charge here, in
        the put; a busy one finds the item when it gets that far.
        """
        self.put_count += 1
        if self._handler is not None:
            self._items.append(item)
            if self._charge is None:
                self._charge_head()
        elif self._getters:
            getter = self._getters.popleft()
            # Inlined getter.succeed(item): a queued getter is pending by
            # construction.
            getter._ok = True
            getter._value = item
            sim = self.sim
            sim._sequence += 1
            heappush(sim._queue,
                     (sim._now, NORMAL_BIAS + sim._sequence, getter))
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        if self._handler is not None:
            raise SimulationError(
                f"store {self.name!r} is served; its handler takes the items")
        event = Event(self.sim)
        if self._items:
            # Inlined event.succeed(...): the event was created pending.
            event._ok = True
            event._value = self._items.popleft()
            sim = self.sim
            sim._sequence += 1
            heappush(sim._queue,
                     (sim._now, NORMAL_BIAS + sim._sequence, event))
        else:
            self._getters.append(event)
        return event

    # -- serving -------------------------------------------------------------
    @property
    def is_served(self) -> bool:
        """True between :meth:`serve` and the next :meth:`clear`."""
        return self._handler is not None

    def serve(self, resource: Resource, cost: Callable[[], float],
              handler: Callable[[Any], None]) -> None:
        """Drain the store through ``handler``, one charge per item.

        Items are taken in FIFO order, one at a time: each holds a slot of
        ``resource`` for ``cost()`` milliseconds (read when the charge
        starts, queued behind whoever holds the resource) and is then passed
        to ``handler``.  The handler runs before the next item's charge
        starts, so whatever it puts on the resource itself goes first.
        Items already buffered are served first; :meth:`clear` stops it.
        """
        if self._handler is not None or self._getters:
            raise SimulationError(
                f"store {self.name!r} already has a consumer")
        self._resource = resource
        self._cost = cost
        self._handler = handler
        if self._items:
            self._charge_head()

    def _charge_head(self) -> None:
        request = self._charge = self._resource.use(self._cost())
        # The continuation takes the place of the slot hand-back as the
        # charge's first callback (and does the hand-back itself), so every
        # way a charge is given up — ``cancel``, ``cancel_all`` — detaches
        # it, and a completion entry left on the heap pops inert.
        request._cb = self._on_charged

    def _charged(self, request: Request) -> None:
        self._resource._release(request)
        self._handler(self._items.popleft())
        # The handler may have cleared the store (it crashed the node) and
        # even had it served again; only the charge it ran under continues.
        if self._charge is request:
            if self._items:
                self._charge_head()
            else:
                self._charge = None

    def clear(self) -> None:
        """Drop all buffered items, abandon all waiting getters, stop serving.

        The charge in progress on a served store is given up (its slot, or
        its place in the queue, goes back now) and its handler never runs.
        """
        self._items.clear()
        self._getters.clear()
        self._handler = None
        if self._charge is not None:
            self._charge.cancel()
            self._charge = None

    # repro: allow(unused-surface): tests read the backlog the network leaves
    @property
    def pending_items(self) -> int:
        """Number of items buffered and not yet taken."""
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Store {self.name!r} items={len(self._items)}>"


class Gate:
    """A level-triggered condition.

    Processes wait on the gate with ``yield gate.wait()``; once
    :meth:`open` is called, all current and future waiters pass immediately
    until :meth:`close` resets the gate.
    """

    __slots__ = ("sim", "name", "_opened", "_waiters")

    def __init__(self, sim: "Simulator", opened: bool = False,
                 name: Optional[str] = None) -> None:
        self.sim = sim
        self.name = name or "gate"
        self._opened = opened
        self._waiters: List[Event] = []

    @property
    def is_open(self) -> bool:
        """Whether waiters currently pass without blocking."""
        return self._opened

    def wait(self) -> Event:
        """Return an event that fires when the gate is (or becomes) open."""
        event = Event(self.sim)
        if self._opened:
            # Already processed: the process yielding it continues inline,
            # with no trip through the event queue.
            event._ok = True
            event._value = None
            event._processed = True
        else:
            self._waiters.append(event)
        return event

    def open(self, value: Any = None) -> None:
        """Open the gate and release every waiter."""
        self._opened = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.succeed(value)

    def close(self) -> None:
        """Close the gate; subsequent waiters block until the next open()."""
        self._opened = False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "open" if self._opened else "closed"
        return f"<Gate {self.name!r} {state} waiters={len(self._waiters)}>"
