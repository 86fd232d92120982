"""Observability layer: span tracing and exporters.

Everything in this package observes the simulation without perturbing it:
spans and instants only read ``sim.now`` and append to Python lists — no
simulation events are scheduled and no random streams are drawn.  A run
therefore produces a bit-identical event trace with observability on or off,
which is the licence the PR-5 kernel fast path operates under.  Counts live
as plain integer attributes on the layers that own them (``lan``, the
failure detector, the databases, the router, the 2PC coordinator).

With observability *off* (the default) every instrumentation site costs one
attribute load and a ``None`` check (``obs = self.sim.obs`` /
``if obs is not None``), mirroring the failpoint idiom.
"""

from .tracer import Instant, Observability, Span

__all__ = [
    "Instant",
    "Observability",
    "Span",
]
