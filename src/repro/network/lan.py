"""Local-area network model.

The paper's Table 4 models the network with two constants: 0.07 ms for a
message or a broadcast on the network, and 0.07 ms of CPU time per network
operation.  The :class:`Lan` therefore delivers every message after a fixed
latency, and charges no bandwidth: a 100 Mb/s switched
LAN is effectively uncontended at the message sizes and rates of the study.
A broadcast is one operation like a message: its copies leave at once and
arrive one latency later, and the sender pays one CPU charge for it (the
layer above charges, :mod:`repro.gcs.reliable_broadcast`).  Copies, and
any messages issued together (:meth:`Lan.send_all`), that share a delay
travel as one wire event.

An arriving message goes to the destination's inbox, whose dispatcher pays
the reception charge, unless the node consumes its kind in the network
interface (:meth:`~repro.network.node.Node.on_arrival`): heartbeats are
NIC-level keep-alives, priced on the wire and never on a CPU.  Either way it
passed the same admission and in-flight drop checks.

Messages addressed to a crashed node are dropped, as are messages whose
sender and destination are separated by an installed
:class:`~repro.network.faults.LinkFault` and — when a fault with loss
probabilities is installed — messages sampled away by the interned
``lan.loss`` stream.  Installed faults are the only way to block a link.
Delivery is FIFO per sender–destination pair (the heap tie-break of the
simulator preserves insertion order for equal timestamps), which is the
usual assumption for a LAN transport such as TCP.

Blocking is *directional* throughout: a blocked ``(sender, destination)``
pair drops messages that way only, which is what an asymmetric link failure
looks like (:meth:`~repro.network.faults.LinkFault.asymmetric`); the
symmetric :meth:`~repro.network.faults.LinkFault.partition` simply blocks
both directions.  When no fault is installed, the send path is
byte-for-byte the pre-fault-model code: no loss stream exists, no extra
draws happen, and the event schedule is bit-identical to the seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.layers import implements
from ..sim.engine import Simulator
from ..sim.events import Deferred
from .faults import FaultTables, LinkFault
from .message import Message
from .node import Node


@implements("links")
class Lan:
    """A broadcast-capable local-area network connecting :class:`Node` objects."""

    def __init__(self, sim: Simulator, latency: float = 0.07) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.latency = latency
        #: The interned loss stream; created on the first install of a lossy
        #: fault and never before, so fault-free runs make no extra draws.
        self._loss_stream = None
        self._nodes: Dict[str, Node] = {}
        #: Installed faults by name, in installation order.
        self._faults: Dict[str, LinkFault] = {}
        #: Combined effect of the installed faults (hot-path tables).
        self._fault_tables = FaultTables()
        #: Count of messages handed to the network (before drops).
        self.sent_count = 0
        #: Count of messages actually delivered (to an inbox, or to an
        #: arrival handler of the destination node).
        self.delivered_count = 0
        #: Count of messages dropped, total over all causes.
        self.dropped_count = 0
        #: Drops split by cause (destination-unknown, destination-crashed,
        #: partitioned, lossy-link), cause -> count.
        self.dropped_by_cause: Dict[str, int] = {}

    # -- topology ---------------------------------------------------------------
    def attach(self, node: Node) -> Node:
        """Connect ``node`` to the LAN and return it."""
        if node.name in self._nodes:
            raise ValueError(f"a node named {node.name!r} is already attached")
        self._nodes[node.name] = node
        return node

    def node(self, name: str) -> Node:
        """Return the attached node called ``name``."""
        return self._nodes[name]

    @property
    def nodes(self) -> List[Node]:
        """All attached nodes, in attachment order."""
        return list(self._nodes.values())

    # -- faults -----------------------------------------------------------------------
    # repro: allow(unused-surface): tests read what the installed faults block
    def is_blocked(self, sender: str, destination: str) -> bool:
        """True if ``sender`` → ``destination`` traffic is currently dropped
        by an installed fault."""
        return (sender, destination) in self._fault_tables.blocked

    def install_fault(self, fault: LinkFault) -> LinkFault:
        """Activate ``fault`` (replacing any installed fault of the same name).

        Installing the first fault with loss probabilities interns the
        ``lan.loss`` stream; stream creation does not perturb any other
        stream, and the stream is only drawn from when a message actually
        traverses a lossy pair.
        """
        self._faults[fault.name] = fault
        self._rebuild_faults()
        if self._fault_tables.loss and self._loss_stream is None:
            self._loss_stream = self.sim.random.stream("lan.loss")
        return fault

    def remove_fault(self, name: str) -> Optional[LinkFault]:
        """Deactivate the fault installed under ``name`` (None if absent)."""
        fault = self._faults.pop(name, None)
        if fault is not None:
            self._rebuild_faults()
        return fault

    # repro: allow(unused-surface): tests read the faults a schedule left
    def active_faults(self) -> List[str]:
        """Names of the currently installed faults, in installation order."""
        return list(self._faults)

    def schedule_fault(self, fault: LinkFault, at: float,
                       until: Optional[float] = None) -> LinkFault:
        """Install ``fault`` at simulated time ``at``; remove it at ``until``.

        This is how faults get durations: a netsplit that starts at ``at``
        and heals at ``until``.  With ``until=None`` the fault stays until
        removed explicitly.
        """
        if until is not None and until <= at:
            raise ValueError("a fault must be removed after it is installed")
        self.sim.call_at(at, lambda: self.install_fault(fault))
        if until is not None:
            self.sim.call_at(until, lambda: self.remove_fault(fault.name))
        return fault

    def _rebuild_faults(self) -> None:
        self._fault_tables = FaultTables.combine(self._faults.values())

    # -- transmission -----------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Send a point-to-point message.

        The message is silently dropped if the destination is unknown,
        crashed, partitioned away, or sampled away by a lossy link — exactly
        what a datagram network does.  Sending stamps
        :attr:`~repro.network.message.Message.sent_at` on the message itself
        (no per-send envelope copy; callers hand over fresh envelopes).  A
        re-sent, already-stamped message travels as a stamped copy, so the
        earlier delivery keeps its own ``sent_at``.
        """
        admitted = self._admit(message)
        if admitted is not None:
            Deferred(self.sim, admitted[0], self._deliver, admitted[1])

    def broadcast(self, message: Message,
                  destinations: Optional[Iterable[str]] = None) -> None:
        """Send one copy of ``message`` to every destination (default: all nodes).

        The sender receives its own copy too; self-delivery is how a process
        learns the total order of its own broadcasts.  The copies share the
        message id and travel as :meth:`send_all` sends them.
        """
        names = destinations if destinations is not None else self._nodes
        self.send_all([message.with_destination(name) for name in names])

    def send_all(self, messages: Iterable[Message]) -> None:
        """Send several point-to-point messages issued at one instant.

        Each is sent as :meth:`send` would (its own drop checks, loss draw
        and ``sent_at``); consecutive ones with the same delay travel as one
        wire event that delivers them in the order given — sent one by one,
        they would hold consecutive tie-break tickets at their arrival
        instant, so nothing could sort between them.
        """
        run_delay: Optional[float] = None
        run: List[Tuple[Message, Node]] = []
        for message in messages:
            admitted = self._admit(message)
            if admitted is None:
                continue
            delay, delivery = admitted
            if delay != run_delay:
                if run:
                    Deferred(self.sim, run_delay, self._deliver_run, (run,))
                run_delay, run = delay, []
            run.append(delivery)
        if run:
            Deferred(self.sim, run_delay, self._deliver_run, (run,))

    def _admit(self, message: Message
               ) -> Optional[Tuple[float, Tuple[Message, Node]]]:
        """Account one send; the delay and the :meth:`_deliver` arguments
        ``(stamped message, destination node)``, or ``None`` when the
        network drops the message at the sender."""
        self.sent_count += 1
        destination = self._nodes.get(message.destination)
        if destination is None:
            self._drop(message, "destination-unknown")
            return None
        tables = self._fault_tables
        if tables.blocked and \
                (message.sender, message.destination) in tables.blocked:
            self._drop(message, "partitioned")
            return None
        delay = self.latency
        if tables.loss or tables.latency:
            pair = (message.sender, message.destination)
            probability = tables.loss.get(pair)
            if probability and self._loss_stream.random() < probability:
                self._drop(message, "lossy-link")
                return None
            factor = tables.latency.get(pair)
            if factor is not None:
                delay *= factor
        if message.sent_at is not None:
            # Re-send of an already-stamped envelope (retransmission): copy
            # it so the earlier in-flight delivery keeps its own timestamp.
            message = message.with_destination(message.destination)
        message.sent_at = self.sim.now
        return delay, (message, destination)

    def _deliver_run(self, run: List[Tuple[Message, Node]]) -> None:
        for message, destination in run:
            self._deliver(message, destination)

    def _deliver(self, message: Message, destination: Node) -> None:
        if destination._crashed:
            # The destination crashed while the message was in flight.
            self._drop(message, "destination-crashed")
            return
        blocked = self._fault_tables.blocked
        if blocked and (message.sender, message.destination) in blocked:
            # A partition came up while the message was in flight.
            self._drop(message, "partitioned")
            return
        self.delivered_count += 1
        handler = destination._arrival_handlers.get(message.kind)
        if handler is None:
            destination.inbox.put(message)
        else:
            handler(message)

    def _drop(self, message: Message, cause: str) -> None:
        """Account one dropped message (total, per cause, span tracer)."""
        self.dropped_count += 1
        self.dropped_by_cause[cause] = self.dropped_by_cause.get(cause, 0) + 1
        obs = self.sim.obs
        if obs is not None:
            obs.instant("lan.drop", track="lan",
                        labels={"kind": message.kind,
                                "sender": message.sender,
                                "destination": message.destination,
                                "reason": cause})

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<Lan nodes={len(self._nodes)} sent={self.sent_count} "
                f"delivered={self.delivered_count}>")
