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
the reception charge.  Keep-alives (:meth:`Lan.send_beats`, the heartbeats)
are ``(sender, destination)`` pairs with no envelope, priced on the wire and
never on a CPU: the LAN hands the pairs of each wire arrival to the
sender's callback.  Both pass the same admission and in-flight drop checks.

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

from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.layers import implements
from ..sim.engine import Simulator
from ..sim.events import Deferred
from .faults import FaultTables, LinkFault, LinkPair
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
        #: Count of messages and keep-alives handed to the network (before
        #: drops).
        self.sent_count = 0
        #: Count of messages and keep-alives actually delivered.
        self.delivered_count = 0
        #: Count of messages and keep-alives dropped, over all causes.
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
        admitted = self._admit(message.kind, message.sender,
                               message.destination)
        if admitted is not None:
            if message.sent_at is not None:
                message = message.with_destination(message.destination)
            message.sent_at = self.sim.now
            Deferred(self.sim, admitted[0], self._deliver,
                     (message, admitted[1]))

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
        wire event (:meth:`_wire`).
        """
        now = self.sim.now
        admitted = []
        for message in messages:
            verdict = self._admit(message.kind, message.sender,
                                  message.destination)
            if verdict is not None:
                if message.sent_at is not None:
                    message = message.with_destination(message.destination)
                message.sent_at = now
                admitted.append((verdict[0], (message, verdict[1])))
        self._wire(admitted, self._deliver_run)

    def send_beats(self, kind: str, pairs: List[LinkPair],
                   on_arrival: Callable[[List[LinkPair]], None]) -> None:
        """Send keep-alives of ``kind``: one per ``(sender, destination)``
        pair, issued at one instant, with no envelope.

        Each pair is admitted, carried and dropped exactly as a message of
        ``kind`` between the two would be; at each wire arrival
        ``on_arrival`` receives the pairs that survived, in the order given.
        A keep-alive never reaches an inbox.  With no fault installed and
        every destination attached, the pairs are admitted as one run,
        with no call per pair.
        """
        tables = self._fault_tables
        if pairs and not (tables.blocked or tables.loss or tables.latency) \
                and self._nodes.keys() >= {pair[1] for pair in pairs}:
            self.sent_count += len(pairs)
            Deferred(self.sim, self.latency, self._deliver_beats,
                     (kind, on_arrival, pairs))
            return
        admitted = [(verdict[0], pair) for pair in pairs
                    if (verdict := self._admit(kind, *pair)) is not None]
        self._wire(admitted, self._deliver_beats, kind, on_arrival)

    def _admit(self, kind: str, sender: str, destination: str
               ) -> Optional[Tuple[float, Node]]:
        """The admission rule of every send: account it, and return the
        delay and the destination node, or ``None`` when the network drops
        it at the sender."""
        self.sent_count += 1
        node = self._nodes.get(destination)
        if node is None:
            self._drop(kind, sender, destination, "destination-unknown")
            return None
        tables = self._fault_tables
        if tables.blocked and (sender, destination) in tables.blocked:
            self._drop(kind, sender, destination, "partitioned")
            return None
        delay = self.latency
        if tables.loss or tables.latency:
            pair = (sender, destination)
            probability = tables.loss.get(pair)
            if probability and self._loss_stream.random() < probability:
                self._drop(kind, sender, destination, "lossy-link")
                return None
            factor = tables.latency.get(pair)
            if factor is not None:
                delay *= factor
        return delay, node

    def _wire(self, admitted: List[Tuple[float, Any]],
              deliver: Callable[..., None], *args: Any) -> None:
        """Put ``(delay, item)`` sends issued at one instant on the wire:
        consecutive ones with the same delay travel as one wire event, which
        calls ``deliver(*args, run)`` with their items in the order given —
        sent one by one, they would hold consecutive tie-break tickets at
        their arrival instant, so nothing could sort between them."""
        for delay, run in groupby(admitted, itemgetter(0)):
            Deferred(self.sim, delay, deliver, (*args, [i for _, i in run]))

    def _deliver_run(self, run: List[Tuple[Message, Node]]) -> None:
        for message, destination in run:
            self._deliver(message, destination)

    def _deliver(self, message: Message, destination: Node) -> None:
        if destination._crashed:
            # The destination crashed while the message was in flight.
            self._drop(message.kind, message.sender, message.destination,
                       "destination-crashed")
            return
        blocked = self._fault_tables.blocked
        if blocked and (message.sender, message.destination) in blocked:
            # A partition came up while the message was in flight.
            self._drop(message.kind, message.sender, message.destination,
                       "partitioned")
            return
        self.delivered_count += 1
        destination.inbox.put(message)

    def _deliver_beats(self, kind: str,
                       on_arrival: Callable[[List[LinkPair]], None],
                       run: List[LinkPair]) -> None:
        """A wire arrival of keep-alives: :meth:`_deliver`'s in-flight drop
        checks, per pair only while a partition is installed or a node is
        down."""
        blocked = self._fault_tables.blocked
        nodes = self._nodes
        if blocked or any(node._crashed for node in nodes.values()):
            survivors = []
            for pair in run:
                if nodes[pair[1]]._crashed:
                    self._drop(kind, *pair, "destination-crashed")
                elif blocked and pair in blocked:
                    self._drop(kind, *pair, "partitioned")
                else:
                    survivors.append(pair)
            run = survivors
        self.delivered_count += len(run)
        on_arrival(run)

    def _drop(self, kind: str, sender: str, destination: str,
              cause: str) -> None:
        """Account one dropped send (total, per cause, span tracer)."""
        self.dropped_count += 1
        self.dropped_by_cause[cause] = self.dropped_by_cause.get(cause, 0) + 1
        obs = self.sim.obs
        if obs is not None:
            obs.instant("lan.drop", track="lan",
                        labels={"kind": kind, "sender": sender,
                                "destination": destination, "reason": cause})

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<Lan nodes={len(self._nodes)} sent={self.sent_count} "
                f"delivered={self.delivered_count}>")
