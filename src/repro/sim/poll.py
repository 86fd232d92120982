"""Pollers: background loops that tick on a grid and take no event while idle.

A background loop such as the buffer pool's write-behind flusher or the
WAL's group-commit loop is, in the model, ``while True: yield
sim.timeout(interval); do_the_work()`` — one kernel event per tick, whether
or not there is any work.  A :class:`Poller` keeps that tick grid and skips
the ticks that provably do nothing:

* **Park.**  A loop whose work source is empty when it would schedule its
  next tick parks on the source's :class:`Parked` list instead.
* **Notify.**  The source's owner calls :meth:`Parked.notify` when the
  source gains work.  Each parked loop becomes due at the first instant of
  its own grid strictly after now, computed as ``base + interval +
  interval + …`` — the same float sums its timeouts would have made, so
  the instant is bit-exact.
* **One queue entry per instant.**  Every loop due at one instant, parked
  before or not, waits in that instant's one :class:`Tick` queue entry.

The declared wake rule: a :class:`Tick` sorts after the interrupts and
before every ordinary event of its instant, and resumes its loops in
**rank** order, the order in which the loops first ran (their spawn order).
A loop's timeout sorted by when it was queued, one interval earlier, so the
two orders differ only at an instant that also holds an ordinary event
queued before that, or where the grids of two loops that have drifted apart
meet again.  The firing order of simultaneously enabled
pollers is thereby a declared priority of the net, not an accident of which
loop was notified first (Montali & Rivkin's coloured Petri nets with
priorities, PAPERS.md; ROADMAP ★23).

A loop killed by a crash is skipped when its tick comes due, and the
source's owner drops its parked loops with the rest of its volatile state.
"""

from __future__ import annotations

from heapq import heappush
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional

from .events import NORMAL_BIAS, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import Simulator

_by_rank = attrgetter("rank")


class Parked(list):
    """The pollers parked on one work source.

    The source's owner tests the list before notifying (``if parked:
    parked.notify()``), so adding work costs one truth test while nothing
    is parked, and clears it when the source's volatile state is lost.
    """

    __slots__ = ()

    def notify(self) -> None:
        """The source gained work: make every parked poller due."""
        for poller in self:
            poller._wake()
        self.clear()


class Poller:
    """One loop that polls every ``interval`` ms and parks while idle.

    Make it inside the loop's generator, so that it is made as the loop
    first runs: the order of that is its rank.
    """

    __slots__ = ("sim", "interval", "rank", "_parked", "_base", "_tick")

    def __init__(self, sim: "Simulator", interval: float,
                 parked: Parked) -> None:
        if interval <= 0:
            raise ValueError(f"poll interval must be positive: {interval!r}")
        self.sim = sim
        self.interval = interval
        sim._poller_count += 1
        #: Resume order among the pollers due at one instant.
        self.rank = sim._poller_count
        self._parked = parked
        self._base = 0.0
        self._tick: Optional[Event] = None

    def next_tick(self, idle: bool) -> Event:
        """The event the loop yields for its next tick, ``interval`` from now.

        ``idle`` says the loop's source is empty: the poller then parks, and
        the tick comes due only once the source is notified.
        """
        sim = self.sim
        tick = self._tick = Event(sim)
        if idle:
            self._base = sim._now
            self._parked.append(self)
        else:
            self._due(sim._now + self.interval)
        return tick

    def _wake(self) -> None:
        now = self.sim._now
        interval = self.interval
        at = self._base + interval
        while at <= now:
            at += interval
        self._due(at)

    def _due(self, at: float) -> None:
        ticks = self.sim._ticks
        entry = ticks.get(at)
        if entry is None:
            entry = ticks[at] = Tick(self.sim, at)
        entry.pollers.append(self)

    def _fire(self) -> None:
        tick, self._tick = self._tick, None
        tick._ok = True
        tick._value = None
        # A killed loop detached itself from its tick: nothing runs.
        tick._run_callbacks()


class Tick(Event):
    """The one queue entry of every poller due at instant ``at``.

    Its queue key, :data:`~repro.sim.events.NORMAL_BIAS`, is above every
    interrupt's and below every ordinary event's; an instant has one tick,
    so no two entries tie.
    """

    __slots__ = ("at", "pollers")

    def __init__(self, sim: "Simulator", at: float) -> None:
        self.sim = sim
        self._cb = self._fire
        self.callbacks = None
        self._value = None
        self._ok = True
        self._defused = False
        self._processed = False
        self.at = at
        self.pollers: List[Poller] = []
        sim._sequence += 1
        heappush(sim._queue, (at, NORMAL_BIAS, self))

    def _fire(self, _event: Event) -> None:
        del self.sim._ticks[self.at]
        pollers = self.pollers
        if len(pollers) > 1:
            pollers.sort(key=_by_rank)
        for poller in pollers:
            poller._fire()
