"""Runtime semantics of the @implements/@uses layer declarations, and the
annotations actually attached to the protocol stack."""

from __future__ import annotations

import pytest

from repro.core.layers import (LAYER_ORDER, implemented_layers, implements,
                               layer_index, used_layers, uses)


def test_layer_order_is_the_paper_stack_bottom_up():
    assert LAYER_ORDER == ("links", "failure_detector", "reliable_broadcast",
                          "total_order", "membership", "replication")
    assert [layer_index(layer) for layer in LAYER_ORDER] == list(range(6))


def test_unknown_layer_rejected_at_decoration_time():
    with pytest.raises(ValueError, match="unknown protocol layer"):
        layer_index("transport")
    with pytest.raises(ValueError):
        implements("transport")
    with pytest.raises(ValueError):
        uses("session")


def test_decorators_attach_metadata_and_return_the_class():
    @implements("total_order")
    @uses("links")
    @uses("membership")
    class Endpoint:
        pass

    assert set(implemented_layers(Endpoint)) == {"total_order"}
    assert set(used_layers(Endpoint)) == {"links", "membership"}
    assert Endpoint.__name__ == "Endpoint"


def test_declarations_do_not_leak_to_subclasses():
    @implements("links")
    class Base:
        pass

    class Child(Base):
        pass

    assert implemented_layers(Base) == ("links",)
    assert implemented_layers(Child) == ()
    assert used_layers(Child) == ()

    @implements("failure_detector")
    class AnnotatedChild(Base):
        pass

    # The child's own declaration, not Base's plus its own.
    assert implemented_layers(AnnotatedChild) == ("failure_detector",)


def test_protocol_stack_is_annotated():
    from repro.gcs.failure_detector import FailureDetector
    from repro.gcs.fixed_sequencer import FixedSequencerEngine
    from repro.gcs.membership import GroupMembership
    from repro.gcs.paxos import MultiPaxosEngine
    from repro.gcs.reliable_broadcast import ReliableBroadcastLayer
    from repro.network.lan import Lan
    from repro.replication.dbsm import DatabaseStateMachineReplica
    from repro.replication.lazy import LazyReplica

    assert implemented_layers(Lan) == ("links",)
    assert implemented_layers(FailureDetector) == ("failure_detector",)
    assert implemented_layers(ReliableBroadcastLayer) == \
        ("reliable_broadcast",)
    assert used_layers(ReliableBroadcastLayer) == ("links",)
    assert implemented_layers(FixedSequencerEngine) == ("total_order",)
    assert used_layers(FixedSequencerEngine) == ("reliable_broadcast",)
    assert implemented_layers(MultiPaxosEngine) == ("total_order",)
    assert set(used_layers(MultiPaxosEngine)) == \
        {"reliable_broadcast", "failure_detector"}
    assert implemented_layers(GroupMembership) == ("membership",)
    assert used_layers(GroupMembership) == ("failure_detector",)
    assert implemented_layers(DatabaseStateMachineReplica) == ("replication",)
    assert used_layers(DatabaseStateMachineReplica) == ("total_order",)
    assert implemented_layers(LazyReplica) == ("replication",)
