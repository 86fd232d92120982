"""Deterministic discrete-event simulation kernel.

This package provides the substrate on which the whole replicated-database
model runs: a simulated clock, generator-based processes, queued resources
(CPUs, disks) and FIFO stores (network endpoints, mailboxes).  Time is
measured in **milliseconds** everywhere.

Quick example::

    from repro.sim import Simulator

    sim = Simulator(seed=1)

    def worker(sim, cpu):
        yield cpu.use(5.0)           # hold the CPU for 5 ms
        return sim.now

    from repro.sim import Resource
    cpu = Resource(sim, capacity=1, name="cpu")
    done = sim.spawn(worker(sim, cpu))
    sim.run()
    assert done.value == 5.0
"""

from .engine import Simulator
from .errors import (EventAlreadyTriggered, Interrupt, SchedulingError,
                     SimulationError)
from .events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .process import Process
from .resources import Gate, Request, Resource, Store
from .rng import RandomStreams

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Process",
    "Resource",
    "Request",
    "Store",
    "Gate",
    "RandomStreams",
    "SimulationError",
    "SchedulingError",
    "EventAlreadyTriggered",
    "Interrupt",
]
