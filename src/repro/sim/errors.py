"""Exception types used by the discrete-event simulation kernel.

The kernel keeps its error handling deliberately small: anything that is a
programming error (scheduling in the past, running a finished simulation)
raises :class:`SimulationError`, while control-flow signals delivered *into*
simulated processes (crash of the hosting server, explicit kill) use
:class:`Interrupt` so that process code can distinguish them from ordinary
exceptions.
"""

from __future__ import annotations


class SimulationError(RuntimeError):
    """Raised when the simulation kernel is used incorrectly.

    Typical causes are scheduling an event at a time earlier than the current
    simulation clock, or re-triggering an event that already fired.
    """


class SchedulingError(SimulationError):
    """Raised when an event is scheduled at an invalid simulation time."""


class EventAlreadyTriggered(SimulationError):
    """Raised when an event is succeeded or failed more than once."""


class Interrupt(Exception):
    """Thrown inside a simulated process when it is interrupted.

    The ``cause`` attribute carries an arbitrary object describing why the
    interruption happened (for instance a :class:`~repro.sim.process.Process`
    being killed because the server hosting it crashed).
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Interrupt(cause={self.cause!r})"
