"""Local-area network model.

The paper's Table 4 models the network with two constants: 0.07 ms for a
message or a broadcast on the network, and 0.07 ms of CPU time per network
operation.  The :class:`Lan` therefore delivers every message after a fixed
(optionally jittered) latency, and charges no bandwidth: a 100 Mb/s switched
LAN is effectively uncontended at the message sizes and rates of the study.
A broadcast is one operation like a message: its copies leave at once and
arrive one latency later, and the sender pays one CPU charge for it (the
layer above charges, :mod:`repro.gcs.reliable_broadcast`).  Copies, and
any messages issued together (:meth:`Lan.send_all`), that share a delay
travel as one wire event.

Messages addressed to a crashed node are dropped, as are messages whose
sender and destination are separated by an active partition, and — when a
:class:`~repro.network.faults.LinkFault` with loss probabilities is
installed — messages sampled away by the interned ``lan.loss`` stream.
Delivery is FIFO per sender–destination pair (the heap tie-break of the
simulator preserves insertion order for equal timestamps), which is the
usual assumption for a LAN transport such as TCP.

Blocking is *directional* throughout: a blocked ``(sender, destination)``
pair drops messages that way only, which is what an asymmetric link failure
looks like.  The symmetric helpers (:meth:`Lan.partition`,
:meth:`~repro.network.faults.LinkFault.partition`) simply block both
directions.  When no fault is installed and nothing is blocked, the send
path is byte-for-byte the pre-fault-model code: no loss stream exists, no
extra draws happen, and the event schedule is bit-identical to the seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.layers import implements
from ..sim.engine import Simulator
from ..sim.events import Deferred
from .faults import FaultTables, LinkFault
from .message import Message
from .node import Node

#: The drop causes of :attr:`Lan.dropped_by_cause`.
DROP_CAUSES = ("destination-unknown", "destination-crashed", "partitioned",
               "lossy-link")


@implements("links")
class Lan:
    """A broadcast-capable local-area network connecting :class:`Node` objects."""

    def __init__(self, sim: Simulator, latency: float = 0.07,
                 jitter: float = 0.0) -> None:
        if latency < 0 or jitter < 0:
            raise ValueError("latency and jitter must be non-negative")
        self.sim = sim
        self.latency = latency
        self.jitter = jitter
        self._jitter_stream = sim.random.stream("lan.jitter") if jitter else None
        #: The interned loss stream; created on the first install of a lossy
        #: fault and never before, so fault-free runs make no extra draws.
        self._loss_stream = None
        self._nodes: Dict[str, Node] = {}
        #: Directionally blocked pairs from :meth:`block` / :meth:`partition`.
        self._manual_blocked: Set[Tuple[str, str]] = set()
        #: Installed faults by name, in installation order.
        self._faults: Dict[str, LinkFault] = {}
        #: Combined effect of the installed faults (hot-path tables).
        self._fault_tables = FaultTables()
        #: Union of manual and fault blocking — the set the send and
        #: delivery paths actually consult.
        self._blocked_pairs: Set[Tuple[str, str]] = set()
        #: Count of messages handed to the network (before drops).
        self.sent_count = 0
        #: Count of messages actually delivered to an inbox.
        self.delivered_count = 0
        #: Count of messages dropped, total over all causes.
        self.dropped_count = 0
        #: Drops split by cause (:data:`DROP_CAUSES`), cause -> count.
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

    def node_names(self) -> List[str]:
        """Names of all attached nodes, in attachment order."""
        return list(self._nodes)

    @property
    def nodes(self) -> List[Node]:
        """All attached nodes, in attachment order."""
        return list(self._nodes.values())

    # -- partitions and manual blocking ------------------------------------------------
    def block(self, sender: str, destination: str) -> None:
        """Block the directional link ``sender`` → ``destination``.

        Only that direction is affected: replies from ``destination`` to
        ``sender`` still flow, which models an asymmetric link failure.
        Symmetric blocking takes two calls (or :meth:`partition`).
        """
        self._manual_blocked.add((sender, destination))
        self._rebuild_blocked()

    def unblock(self, sender: str, destination: str) -> None:
        """Remove a directional block added by :meth:`block` /
        :meth:`partition` (no-op if absent; fault blocking is unaffected —
        remove the fault instead)."""
        self._manual_blocked.discard((sender, destination))
        self._rebuild_blocked()

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Block all traffic between the two groups of node names."""
        for a in group_a:
            for b in group_b:
                self._manual_blocked.add((a, b))
                self._manual_blocked.add((b, a))
        self._rebuild_blocked()

    def heal(self) -> None:
        """Remove every manual block and partition (installed faults stay)."""
        self._manual_blocked.clear()
        self._rebuild_blocked()

    def is_blocked(self, sender: str, destination: str) -> bool:
        """True if ``sender`` → ``destination`` traffic is currently dropped
        (by a manual block, a partition, or an installed fault)."""
        return (sender, destination) in self._blocked_pairs

    # -- faults -----------------------------------------------------------------------
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
        self._rebuild_blocked()

    def _rebuild_blocked(self) -> None:
        self._blocked_pairs = self._manual_blocked | self._fault_tables.blocked

    # -- transmission -----------------------------------------------------------------
    def _delivery_delay(self) -> float:
        delay = self.latency
        if self.jitter:
            delay += self.jitter * self._jitter_stream.random()
        return delay

    def send(self, message: Message) -> None:
        """Send a point-to-point message.

        The message is silently dropped if the destination is unknown,
        crashed, partitioned away, or sampled away by a lossy link — exactly
        what a datagram network does.  Sending stamps
        :attr:`~repro.network.message.Message.sent_at` on the message itself
        (no per-send envelope copy; callers hand over fresh envelopes, and a
        re-sent message is simply re-stamped).
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
        if self._blocked_pairs and \
                (message.sender, message.destination) in self._blocked_pairs:
            self._drop(message, "partitioned")
            return None
        delay = self._delivery_delay()
        tables = self._fault_tables
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
            message = Message(sender=message.sender,
                              destination=message.destination,
                              kind=message.kind, payload=message.payload,
                              message_id=message.message_id)
        object.__setattr__(message, "sent_at", self.sim.now)
        return delay, (message, destination)

    def _deliver_run(self, run: List[Tuple[Message, Node]]) -> None:
        for message, destination in run:
            self._deliver(message, destination)

    def _deliver(self, message: Message, destination: Node) -> None:
        if destination._crashed:
            # The destination crashed while the message was in flight.
            self._drop(message, "destination-crashed")
            return
        if self._blocked_pairs and \
                (message.sender, message.destination) in self._blocked_pairs:
            # A partition came up while the message was in flight.
            self._drop(message, "partitioned")
            return
        self.delivered_count += 1
        destination.inbox.put(message)

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
