"""Machine-checkable protocol-layer contracts.

The paper's replication techniques are defined *on top of* a stack of group
communication abstractions, and the ROADMAP's pluggable total-order work
needs that stack to be explicit before it can be decomposed.  This module
gives every protocol class a declared position in the canonical layer order

    links -> failure_detector -> reliable_broadcast -> total_order
          -> membership -> replication

via two class decorators, in the spirit of the ``@implements`` / ``@uses``
discipline of introduction-to-reliable-distributed-programming codebases:

    @implements("total_order")
    @uses("links")
    class AtomicBroadcastEndpoint: ...

The decorators are pure metadata — they attach ``__layer_implements__`` and
``__layer_uses__`` tuples to the class and return it unchanged — but they are
*statically enforced*: the ``layer-contract`` rule of
:mod:`repro.analysis.rules` rebuilds the decorator and import graphs from
source and fails the lint gate on upward dependencies (a layer using a layer
above itself) and, in strict mode, on skip-layer dependencies (a layer
reaching past an implemented intermediate layer).
"""

from __future__ import annotations

from typing import Callable, Tuple, Type, TypeVar

C = TypeVar("C", bound=type)

#: The canonical bottom-up layer order of the protocol stack.
LAYER_ORDER: Tuple[str, ...] = (
    "links",
    "failure_detector",
    "reliable_broadcast",
    "total_order",
    "membership",
    "replication",
)

_LAYER_INDEX = {name: index for index, name in enumerate(LAYER_ORDER)}


def layer_index(layer: str) -> int:
    """Position of ``layer`` in :data:`LAYER_ORDER` (0 = bottom)."""
    try:
        return _LAYER_INDEX[layer]
    except KeyError:
        raise ValueError(
            f"unknown protocol layer {layer!r}; "
            f"expected one of {', '.join(LAYER_ORDER)}") from None


def implements(layer: str) -> Callable[[C], C]:
    """Class decorator: declare that the class implements ``layer``."""
    layer_index(layer)  # validate eagerly, at decoration time

    def decorate(cls: C) -> C:
        declared = getattr(cls, "__layer_implements__", ())
        # Read only declarations made on this class, not inherited ones.
        if "__layer_implements__" not in cls.__dict__:
            declared = ()
        cls.__layer_implements__ = declared + (layer,)
        return cls

    return decorate


def uses(layer: str) -> Callable[[C], C]:
    """Class decorator: declare that the class depends on ``layer``."""
    layer_index(layer)

    def decorate(cls: C) -> C:
        declared = getattr(cls, "__layer_uses__", ())
        if "__layer_uses__" not in cls.__dict__:
            declared = ()
        cls.__layer_uses__ = declared + (layer,)
        return cls

    return decorate


# repro: allow(unused-surface): tests read the stack's declarations with it
def implemented_layers(cls: Type) -> Tuple[str, ...]:
    """Layers ``cls`` declares it implements (own declarations only)."""
    return tuple(cls.__dict__.get("__layer_implements__", ()))


# repro: allow(unused-surface): tests read the stack's declarations with it
def used_layers(cls: Type) -> Tuple[str, ...]:
    """Layers ``cls`` declares it uses (own declarations only)."""
    return tuple(cls.__dict__.get("__layer_uses__", ()))
