"""Generator-based simulated processes.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  Each yield suspends the process until the event fires; the event's
value is sent back into the generator (or the event's exception is thrown into
it).  A :class:`Process` is itself an event, so processes can wait for the
completion of other processes.

Processes can be *interrupted* (an :class:`~repro.sim.errors.Interrupt` is
thrown at their current yield point) or *killed* outright.  Killing is how the
simulator models a server crash: all protocol and transaction processes of the
crashed server stop immediately and never resume, mirroring the
crash-no-recovery / crash-recovery process behaviour described in Sect. 2.3 of
the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .errors import Interrupt, SimulationError
from .events import Event
from .resources import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import Simulator


class Process(Event):
    """Wraps a generator and drives it through the simulator.

    The process completes (as an event) with the generator's return value, or
    fails with the exception that escaped the generator.
    """

    __slots__ = ("name", "_generator", "_target", "_killed", "_send",
                 "_throw", "_on_fire")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any],
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = None
        self._killed = False
        # Hot-path handles bound once per process instead of once per yield:
        # the generator's send/throw, and the resume callback (attribute
        # access on a method creates a fresh bound-method object every time —
        # at one callback per yield that is a measurable allocation).
        self._send = generator.send
        self._throw = generator.throw
        self._on_fire = self._resume

        # Bootstrap: resume the generator for the first time "immediately".
        bootstrap = Event(sim)
        bootstrap._cb = self._on_fire
        bootstrap.succeed()

    # -- state -------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for (None if running)."""
        return self._target

    # -- control -----------------------------------------------------------
    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is a no-op so that callers do not need
        to guard against races between completion and interruption.
        """
        if not self.is_alive or self._killed:
            return
        interrupt_event = Event(self.sim)
        interrupt_event.add_callback(self._deliver_interrupt)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        self.sim._schedule(interrupt_event, priority=True)

    def kill(self, cause: object = None) -> None:
        """Terminate the process immediately and permanently.

        Unlike :meth:`interrupt`, the generator gets no chance to handle the
        termination: it is closed and the process event fails with
        :class:`Interrupt`.  Used to model server crashes.
        """
        if not self.is_alive or self._killed:
            return
        self._killed = True
        self._detach_from_target()
        self._generator.close()
        if not self.triggered:
            self._ok = False
            self._value = Interrupt(cause)
            self._defused = True
            self.sim._schedule(self)

    # -- internal ----------------------------------------------------------
    def _detach_from_target(self) -> None:
        target = self._target
        self._target = None
        if target is None:
            return
        if target._cb is self._on_fire:
            target._cb = None
        elif target.callbacks is not None:
            try:
                target.callbacks.remove(self._on_fire)
            except ValueError:
                pass
        if type(target) is Request:
            # Killed or interrupted mid-charge: the slot (or the place in
            # the queue) goes back at this instant, not when the hold ends.
            target.cancel()

    def _deliver_interrupt(self, event: Event) -> None:
        if not self.is_alive or self._killed:
            return
        self._detach_from_target()
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator by one yield using ``event``'s outcome."""
        if self._killed:
            return
        self._target = None
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                event._defused = True
                next_event = self._throw(event._value)
        except StopIteration as stop:
            if not self.triggered:
                if self._cb is None and self.callbacks is None:
                    # Nobody is waiting: nothing to hand over, so nothing to
                    # queue.  Whoever asks later finds a processed event.
                    self._ok = True
                    self._value = stop.value
                    self._processed = True
                else:
                    self.succeed(stop.value)
            return
        except BaseException as exc:
            if not self.triggered:
                self._ok = False
                self._value = exc
                sim._schedule(self)
            return
        finally:
            sim._active_process = None

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {next_event!r}, expected an Event")
        if next_event.sim is not sim:
            raise SimulationError(
                f"process {self.name!r} yielded an event from another simulator")
        self._target = next_event
        # Inlined next_event.add_callback(self._on_fire):
        if next_event._processed:
            self._on_fire(next_event)
        elif next_event._cb is None and next_event.callbacks is None:
            next_event._cb = self._on_fire
        elif next_event.callbacks is None:
            next_event.callbacks = [self._on_fire]
        else:
            next_event.callbacks.append(self._on_fire)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
