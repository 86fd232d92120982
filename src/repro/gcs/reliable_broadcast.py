"""Reliable point-to-point broadcast layer over the simulated LAN.

This is the bottom protocol of the group-communication stack (between the
raw links and the total-order engines): a per-member outbound channel that
charges the sending CPU for each protocol message and hands it to the LAN.
On the paper's switched 100 Mb/s LAN the link layer itself neither loses nor
reorders frames, so reliability at this level reduces to (a) surviving the
*sender's* crash — volatile outbound state is dropped and rebuilt, and the
engines above re-send what was never ordered — and (b) never blocking the
protocol handlers: sends are queued and a dedicated sender process drains
them, which is what gives every protocol message its CPU cost.

The total-order engines (:mod:`repro.gcs.fixed_sequencer`,
:mod:`repro.gcs.paxos`) are written against this layer only; they never talk
to the LAN directly.
"""

from __future__ import annotations

from typing import Optional

from ..core.layers import implements, uses
from ..network.lan import Lan
from ..network.message import Message
from ..network.node import Node
from ..sim.engine import Simulator
from ..sim.resources import Store


@implements("reliable_broadcast")
@uses("links")
class ReliableBroadcastLayer:
    """One member's outbound broadcast channel (queue + sender process)."""

    def __init__(self, sim: Simulator, lan: Lan, node: Node,
                 member_name: Optional[str] = None) -> None:
        self.sim = sim
        self.lan = lan
        self.node = node
        self.member_name = member_name or node.name
        self.reset()

    # ------------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Drop the volatile outbound queue (the crash of the hosting node)."""
        self._outbox: Store = Store(self.sim, name=f"{self.member_name}.outbox")
        self._started = False

    def start(self) -> None:
        """Start the sender process on the hosting node."""
        if self._started:
            return
        self._started = True
        self.node.spawn(self._sender_loop(), name="abcast.sender")

    # ------------------------------------------------------------------ sending
    def send(self, message: Message) -> None:
        """Queue one protocol message for the sender process."""
        self._outbox.put(message)

    def _sender_loop(self):
        outbox_get = self._outbox.get
        use_cpu = self.node.cpu.use
        cpu_cost = self.node.cpu_time_per_network_op
        send = self.lan.send
        while True:
            message = yield outbox_get()
            yield use_cpu(cpu_cost)
            send(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ReliableBroadcastLayer {self.member_name}>"
