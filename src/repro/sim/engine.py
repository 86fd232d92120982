"""The discrete-event simulation engine.

The :class:`Simulator` owns the simulated clock and the event queue and drives
all simulated processes.  It is deliberately deterministic: two runs with the
same seed and the same program produce the same event ordering, which is what
makes the failure-injection experiments of the paper reproducible.

Time is a float.  Throughout the library the unit is **milliseconds**, because
the paper's Table 4 expresses every service time in milliseconds.

Hot-path notes: queue entries are ``(time, key, event)`` 3-tuples where
``key`` folds the priority rank and the tie-breaking sequence number into one
integer — priority events (interrupts) keep their raw sequence number while
ordinary events carry :data:`~repro.sim.events.NORMAL_BIAS` on top, so at
equal times every priority event sorts before every ordinary one and FIFO
order holds within each class.  This is ordering-equivalent to the historical
``(time, rank, sequence, event)`` 4-tuples (the sequence counter is consumed
identically), but allocates one word less per event and compares one element
less per heap sift.  :meth:`run` inlines the pop loop of :meth:`step` so the
per-event cost is a heappop, a clock store and the callback dispatch.
"""

from __future__ import annotations

import heapq
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, Iterable,
                    List, Optional, Tuple)

from .errors import SchedulingError, SimulationError
from .events import NORMAL_BIAS, AllOf, AnyOf, Deferred, Event, Timeout
from .process import Process
from .rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .poll import Tick

_INFINITY = float("inf")


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the named random streams (see
        :class:`~repro.sim.rng.RandomStreams`).  Two simulators built with the
        same seed and running the same model produce identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: float = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        #: Instant -> the one queue entry of the pollers due then, and the
        #: number of pollers made so far (see :mod:`repro.sim.poll`).
        self._ticks: Dict[float, "Tick"] = {}
        self._poller_count = 0
        self.random = RandomStreams(seed)
        #: Optional event-trace sink (see :meth:`enable_trace`).
        self._trace: Optional[list] = None
        #: Optional span tracer (see :class:`repro.obs.tracer.Observability`).
        #: ``None`` when observability is off; instrumentation sites guard on
        #: that, so the disabled cost is one attribute load and a None check.
        self.obs: Optional[Any] = None

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    # -- event creation -------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` milliseconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Create an event that fires once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Create an event that fires once any of ``events`` has fired."""
        return AnyOf(self, events)

    def spawn(self, generator: Generator[Event, Any, Any],
              name: Optional[str] = None) -> Process:
        """Start a new simulated process from ``generator``."""
        return Process(self, generator, name=name)

    def call_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} (now is {self._now})")
        return Deferred(self, time - self._now, callback)

    def call_after(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` milliseconds of simulated time.

        The callback (with its pre-bound ``args``) is stored directly on the
        scheduled event — no wrapper lambda, no callback-list allocation.
        """
        return Deferred(self, delay, callback, args)

    # -- scheduling internals -------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: bool = False) -> None:
        """Place a triggered event on the queue ``delay`` from now.

        ``priority`` events (interrupts) sort before ordinary events that were
        scheduled for the same instant, which makes crash delivery immediate.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        self._sequence += 1
        heapq.heappush(
            self._queue,
            (self._now + delay,
             self._sequence if priority else NORMAL_BIAS + self._sequence,
             event))

    # -- execution --------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event in the queue."""
        if not self._queue:
            raise SimulationError("step() called on an empty event queue")
        when, _key, event = heapq.heappop(self._queue)
        if when < self._now:
            raise SimulationError("event queue went backwards in time")
        if self._trace is not None:
            self._trace.append((when, _key, type(event).__name__))
        self._now = when
        event._run_callbacks()
        if not event._ok and not event._defused:
            # A failure nobody handled is a bug in the model; surface it.
            raise event._value

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue is empty or simulated time reaches ``until``.

        Returns the simulation time at which the run stopped.
        """
        if until is not None and until < self._now:
            raise SchedulingError(
                f"cannot run until {until}: clock is already at {self._now}")
        if self._trace is not None:
            # Traced runs go through step() so every pop is recorded.
            while self._queue:
                when = self._queue[0][0]
                if until is not None and when > until:
                    self._now = until
                    return self._now
                self.step()
            if until is not None:
                self._now = max(self._now, until)
            return self._now
        queue = self._queue
        pop = heapq.heappop
        limit = _INFINITY if until is None else until
        while queue:
            if queue[0][0] > limit:
                self._now = until
                return until
            when, _key, event = pop(queue)
            self._now = when
            # Inlined event._run_callbacks() — event processing is uniform
            # across every event class, and this loop runs once per event.
            cb = event._cb
            callbacks = event.callbacks
            event._cb = None
            event.callbacks = None
            event._processed = True
            if cb is not None:
                cb(event)
            if callbacks:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                # A failure nobody handled is a bug in the model; surface it.
                raise event._value
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def run_until_complete(self, process: Process,
                           limit: Optional[float] = None) -> Any:
        """Run until ``process`` finishes and return its value.

        ``limit`` bounds the simulated time; exceeding it raises
        :class:`SimulationError` (useful to catch livelocks in protocol code).
        """
        while not process.triggered:
            if not self._queue:
                raise SimulationError(
                    f"deadlock: {process!r} never finished and no events remain")
            if limit is not None and self._queue[0][0] > limit:
                raise SimulationError(
                    f"time limit {limit} exceeded while waiting for {process!r}")
            self.step()
        if not process.ok:
            raise process.value
        return process.value

    # repro: allow(unused-surface): tests see a message path leave no event
    @property
    def queued_events(self) -> int:
        """Number of events currently waiting in the queue."""
        return len(self._queue)

    @property
    def scheduled_events(self) -> int:
        """Total events ever scheduled — the benchmark's events/sec numerator."""
        return self._sequence

    # -- tracing ------------------------------------------------------------
    def enable_trace(self) -> list:
        """Record every processed event as ``(time, key, type name)``.

        Returns the (live) list the trace is appended to.  Used by the
        golden-trace determinism tests; tracing routes :meth:`run` through
        :meth:`step`, so it costs real time and is off by default.
        """
        if self._trace is None:
            self._trace = []
        return self._trace

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Simulator t={self._now:.3f}ms queue={len(self._queue)}>"
