"""An exact event bill: every kernel event of a run, attributed to its origin.

:class:`EventBill` wraps, from outside the program, the four places that
push onto the simulator's queue (``heappush`` in ``repro.sim.events``,
``repro.sim.resources`` and ``repro.sim.poll``, ``heapq.heappush`` in
``repro.sim.engine``) and books each push to a row ``(event class, site)``:

* ``site`` is the first frame of the program — ``src/repro`` outside the
  kernel, ``src/repro/sim`` — on the stack, as ``module.function``, followed
  by ``← module.function`` of its caller when that is program code too:
  ``node.spawn ← dbsm._handle_commit`` is a process started by a commit;
* a push the kernel makes on its own, from a callback its run loop
  dispatched, is booked to that callback, as ``kernel process._resume``
  (a process that finished) or ``kernel resources._release`` (a slot handed
  to the next waiter);
* anything else — a push made by code outside the program, a test or a
  script, with no program frame in between — is booked to the site
  :data:`UNATTRIBUTED`.

Each push is one ``Simulator.scheduled_events``, so the rows of a run sum to
its event count exactly.  Usage::

    with EventBill() as bill:
        cluster.run(until=...)
    bill.rows       # Counter of (event class, site) -> events
"""

from __future__ import annotations

import heapq
import os
import sys
from collections import Counter
from types import SimpleNamespace
from typing import Optional

from repro.sim import engine, events, poll, resources

UNATTRIBUTED = "unattributed"

_REPRO = os.path.dirname(os.path.dirname(os.path.abspath(engine.__file__)))
_KERNEL = os.path.dirname(os.path.abspath(engine.__file__))
_RUN_LOOPS = {engine.Simulator.run.__code__, engine.Simulator.step.__code__,
              engine.Simulator.run_until_complete.__code__}
#: How ``Simulator.step`` dispatches an event's callbacks.
_RUN_CALLBACKS = events.Event._run_callbacks.__code__


def _where(frame) -> str:
    module = os.path.splitext(os.path.basename(frame.f_code.co_filename))[0]
    return f"{module}.{frame.f_code.co_name}"


def _is_program(frame) -> bool:
    path = frame.f_code.co_filename
    return path.startswith(_REPRO) and not path.startswith(_KERNEL)


def origin(frame) -> str:
    """The site of a push made in ``frame`` (see the module docstring)."""
    outermost_kernel = None
    while frame is not None:
        if frame.f_code in _RUN_LOOPS:
            return f"kernel {_where(outermost_kernel)}"
        if frame.f_code.co_filename.startswith(_KERNEL):
            if frame.f_code is not _RUN_CALLBACKS:
                outermost_kernel = frame
        elif _is_program(frame):
            caller = frame.f_back
            if caller is not None and _is_program(caller):
                return f"{_where(frame)} ← {_where(caller)}"
            return _where(frame)
        else:
            return UNATTRIBUTED
        frame = frame.f_back
    return UNATTRIBUTED


class EventBill:
    """Books every queue push made while the ``with`` block runs."""

    def __init__(self) -> None:
        self.rows: Counter = Counter()

    def _push(self, queue, entry) -> None:
        site = origin(sys._getframe(1))
        self.rows[(type(entry[2]).__name__, site)] += 1
        heapq.heappush(queue, entry)

    def __enter__(self) -> "EventBill":
        self._saved = (events.heappush, resources.heappush, poll.heappush,
                       engine.heapq)
        events.heappush = resources.heappush = poll.heappush = self._push
        engine.heapq = SimpleNamespace(heappush=self._push,
                                       heappop=heapq.heappop)
        return self

    def __exit__(self, *exc_info) -> None:
        (events.heappush, resources.heappush, poll.heappush,
         engine.heapq) = self._saved

    @property
    def total(self) -> int:
        return sum(self.rows.values())

    def sites(self, event_class: Optional[str] = None) -> Counter:
        """Site -> events, of every class or of ``event_class`` only."""
        by_site: Counter = Counter()
        for (name, site), count in self.rows.items():
            if event_class is None or name == event_class:
                by_site[site] += count
        return by_site
