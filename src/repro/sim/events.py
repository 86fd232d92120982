"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is the unit of coordination between simulated processes and
the :class:`~repro.sim.engine.Simulator`.  Processes *yield* events; the
simulator resumes the process when the event fires.  Events fire either
because simulated time reached them (:class:`Timeout`), because another
process triggered them explicitly (:meth:`Event.succeed` /
:meth:`Event.fail`), or because a composite condition was satisfied
(:class:`AllOf`, :class:`AnyOf`).

The design follows the classic SimPy shape but is intentionally minimal: it
only contains what the replicated-database simulator needs, and it is fully
deterministic — ties in simulated time are broken by a monotonically
increasing sequence number assigned by the simulator.

Hot-path notes: millions of events are created per benchmark run, so every
event class is ``__slots__``-ed and the callback list is allocated lazily
(most events — timeouts of service times, deliveries — never get more than
one callback, and many get none before processing).  ``callbacks`` is
``None`` both before the first :meth:`add_callback` and after processing;
the separate ``_processed`` flag keeps the two states distinguishable.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from .errors import EventAlreadyTriggered

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import Simulator


#: Sentinel used for "not yet triggered" values.
_PENDING = object()

#: Added to the sequence number of non-priority queue entries; priority
#: events (interrupts) keep their raw sequence number, so at equal times
#: they sort first while FIFO order holds within each class.  The triggering
#: fast paths below push heap entries directly (equivalent to
#: ``Simulator._schedule`` with ``delay=0, priority=False``) to spare a
#: method call on the two hottest operations of the kernel.
NORMAL_BIAS = 1 << 62


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*.  It becomes *triggered* when either
    :meth:`succeed` or :meth:`fail` is called, at which point it is placed on
    the simulator's queue and will be *processed* (its callbacks run) at the
    current simulation time.  Each callback receives the event itself.
    """

    __slots__ = ("sim", "_cb", "callbacks", "_value", "_ok", "_defused",
                 "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: First attached callback (almost every event gets at most one, so
        #: the common case allocates no list at all).
        self._cb: Optional[Callable[["Event"], None]] = None
        #: Overflow callbacks beyond the first, in attach order.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self._processed

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator does not raise it.

        The simulator raises failures of events that nobody handled (they are
        almost always programming errors); a handler defuses the event to
        signal that the failure was consumed.
        """
        self._defused = True

    @property
    def ok(self) -> bool:
        """True if the event succeeded, False if it failed.

        Only meaningful once :attr:`triggered` is True.
        """
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The value the event carries (or the exception if it failed)."""
        if self._value is _PENDING:
            raise AttributeError("value of a pending event is not available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._sequence += 1
        heappush(sim._queue, (sim._now, NORMAL_BIAS + sim._sequence, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception will be re-raised inside any process waiting on the
        event.
        """
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._sequence += 1
        heappush(sim._queue, (sim._now, NORMAL_BIAS + sim._sequence, self))
        return self

    # -- callback management ----------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately; this keeps waiting-on-old-events race free.
        """
        if self._processed:
            callback(self)
        elif self._cb is None and self.callbacks is None:
            self._cb = callback
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def _run_callbacks(self) -> None:
        cb = self._cb
        callbacks = self.callbacks
        self._cb = None
        self.callbacks = None
        self._processed = True
        if cb is not None:
            cb(self)
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay of simulated time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Inlined Event.__init__ and schedule — timeouts are the single most
        # frequently created object of the whole simulator (every service
        # time is one).
        self.sim = sim
        self._cb = None
        self.callbacks = None
        self._value = value
        self._ok = True
        self._defused = False
        self._processed = False
        sim._sequence += 1
        heappush(sim._queue,
                 (sim._now + delay, NORMAL_BIAS + sim._sequence, self))


class Deferred(Event):
    """A pre-succeeded event that invokes one bound callback when processed.

    This is what :meth:`~repro.sim.engine.Simulator.call_after` schedules: it
    carries the target callable (and its arguments) directly instead of
    allocating a wrapper lambda per call.  The stored callable occupies the
    first-callback slot, so it runs before any callbacks attached
    afterwards — exactly like the wrapper callback used to — and event
    processing stays uniform across all event classes (which lets the run
    loop inline callback dispatch).
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, sim: "Simulator", delay: float,
                 fn: Callable[..., None], args: tuple = ()) -> None:
        if delay < 0:
            raise ValueError(f"negative callback delay: {delay!r}")
        self.sim = sim
        self._cb = self._invoke
        self.callbacks = None
        self._value = None
        self._ok = True
        self._defused = False
        self._processed = False
        self._fn = fn
        self._args = args
        sim._sequence += 1
        heappush(sim._queue,
                 (sim._now + delay, NORMAL_BIAS + sim._sequence, self))

    def _invoke(self, _event: "Event") -> None:
        self._fn(*self._args)


class ConditionValue:
    """Mapping-like container with the values of the events of a condition."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self.events = [event for event in events if event._processed]

    def __iter__(self):
        return iter(self.events)

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def values(self) -> List[Any]:
        """Return the payload values of all triggered events, in order."""
        return [event.value for event in self.events]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ConditionValue({self.events!r})"


class Condition(Event):
    """Composite event that fires when ``evaluate`` says it should.

    ``evaluate(events, triggered_count)`` must return True once the condition
    holds.  The two concrete conditions used by the library are
    :class:`AllOf` and :class:`AnyOf`.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, sim: "Simulator", evaluate, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.sim is not sim:
                raise ValueError("all events of a condition must share a simulator")

        if not self._events:
            self.succeed(ConditionValue(self._events))
            return

        check = self._check
        for event in self._events:
            event.add_callback(check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event.value)
        elif self._evaluate(self._events, self._count):
            self.succeed(ConditionValue(self._events))


def _all_fired(events: List[Event], count: int) -> bool:
    return count >= len(events)


def _any_fired(events: List[Event], count: int) -> bool:
    return count >= 1


class AllOf(Condition):
    """Fires once every constituent event has fired."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, _all_fired, events)


class AnyOf(Condition):
    """Fires as soon as any constituent event has fired."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, _any_fired, events)
