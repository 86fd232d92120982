"""Reliable point-to-point broadcast layer over the simulated LAN.

This is the bottom protocol of the group-communication stack (between the
raw links and the total-order engines): a per-member outbound channel that
charges the sending CPU for each protocol message and hands it to the LAN.
On the paper's switched 100 Mb/s LAN the link layer itself neither loses nor
reorders frames, so reliability at this level reduces to (a) surviving the
*sender's* crash — volatile outbound state is dropped and rebuilt, and the
engines above re-send what was never ordered — and (b) never blocking the
protocol handlers: sends are queued on a served store
(:meth:`repro.sim.resources.Store.serve`), which is what gives every protocol
message its CPU cost — one charge, then the LAN; nothing else is scheduled.

Table 4 prices "a message or a broadcast on the network" alike, and a
network operation at one CPU charge: :meth:`ReliableBroadcastLayer.send`
queues a unicast, :meth:`ReliableBroadcastLayer.broadcast` one message to a
set of destinations — either way one outbox item and one charge, then one
LAN operation (:meth:`~repro.network.lan.Lan.broadcast` for the latter, so
every copy arrives one latency after the single charge).

The total-order engines (:mod:`repro.gcs.fixed_sequencer`,
:mod:`repro.gcs.paxos`) are written against this layer only; they never talk
to the LAN directly.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.layers import implements, uses
from ..network.lan import Lan
from ..network.message import Message
from ..network.node import Node
from ..sim.engine import Simulator
from ..sim.resources import Store


@implements("reliable_broadcast")
@uses("links")
class ReliableBroadcastLayer:
    """One member's outbound broadcast channel (a queue served by the CPU)."""

    def __init__(self, sim: Simulator, lan: Lan, node: Node,
                 member_name: Optional[str] = None) -> None:
        self.sim = sim
        self.lan = lan
        self.node = node
        self.member_name = member_name or node.name
        self._outbox = Store(sim, name=f"{self.member_name}.outbox")

    # ------------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Drop the volatile outbound queue (the crash of the hosting node)."""
        self._outbox.clear()

    def start(self) -> None:
        """Start sending: messages queued so far go out first."""
        if not self._outbox.is_served:
            self.node.serve(self._outbox, self._transmit)

    # ------------------------------------------------------------------ sending
    def send(self, message: Message) -> None:
        """Queue one protocol message: one network operation of the node's
        CPU, then the LAN."""
        self._outbox.put((message, None))

    def broadcast(self, message: Message, destinations: Sequence[str]) -> None:
        """Queue one protocol message for every destination: one network
        operation of the node's CPU, then one LAN broadcast."""
        self._outbox.put((message, destinations))

    def _transmit(self, item: Tuple[Message, Optional[Sequence[str]]]) -> None:
        message, destinations = item
        if destinations is None:
            self.lan.send(message)
        else:
            self.lan.broadcast(message, destinations)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ReliableBroadcastLayer {self.member_name}>"
