"""The total-order broadcast engines, by name.

The replication techniques are written against the
:class:`~repro.gcs.total_order.TotalOrderEngine` endpoint surface and never
name an ordering protocol.  There is one: Multi-Paxos with a cumulative
decision, in :class:`~repro.gcs.total_order.TotalOrderEngine`; a name in
:data:`ENGINES` selects its leader policy and message kinds —
``SimulationParameters.broadcast_engine`` / the ``--engine`` flag of the
experiment CLIs end up here.

``fixed-sequencer`` (default)
    The classical LAN scheme of the seed: the leader is the view's primary
    (:class:`~repro.gcs.fixed_sequencer.FixedSequencerEngine`);
    bit-identical failure-free event schedules to the pre-decomposition
    code.
``multi-paxos``
    The leader is Ω, read off the failure detector
    (:class:`~repro.gcs.paxos.MultiPaxosEngine`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from .fixed_sequencer import FixedSequencerEngine
from .paxos import MultiPaxosEngine
from .total_order import TotalOrderEngine

#: Name of the engine used when nothing is configured (the seed behaviour).
DEFAULT_ENGINE = "fixed-sequencer"

#: Engine name -> (endpoint class, one-line description).
ENGINES: Dict[str, Tuple[Type[TotalOrderEngine], str]] = {
    "fixed-sequencer": (
        FixedSequencerEngine,
        "leader is the view's primary: the fixed sequencer (the seed scheme)"),
    "multi-paxos": (
        MultiPaxosEngine,
        "leader is Omega, from the failure detector: Multi-Paxos"),
}


def resolve_engine(name: str) -> Type[TotalOrderEngine]:
    """The endpoint class of engine ``name``; ``KeyError`` names the choices."""
    try:
        return ENGINES[name][0]
    except KeyError:
        raise KeyError(f"unknown broadcast engine {name!r}; "
                       f"known engines: {engine_names()}") from None


def engine_names() -> List[str]:
    """Names of every engine, the default first."""
    return list(ENGINES)
