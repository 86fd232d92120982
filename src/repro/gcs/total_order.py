"""Total-order broadcast engines: shared machinery and the engine contract.

The paper's replication techniques are written against *atomic broadcast*
(Sect. 2.3) and do not care how the total order is produced.  This module
captures exactly that boundary: :class:`TotalOrderEngine` is the per-member
endpoint the application sees (``broadcast`` / ``deliveries`` /
``acknowledge`` / ``recover``), plus everything every ordering protocol
needs — the delivery process, duplicate suppression, the JOIN/state-transfer
rejoin protocol, and the optional end-to-end delivery journal — while the
ordering protocol itself lives in a subclass:

* :class:`repro.gcs.fixed_sequencer.FixedSequencerEngine` — the classical
  fixed-sequencer scheme (the seed behaviour, bit-identical schedules);
* :class:`repro.gcs.paxos.MultiPaxosEngine` — per-slot accept/learn
  Multi-Paxos with the leader taken from the failure detector.

Engines sit *below* the membership layer in the stack
(:data:`repro.core.layers.LAYER_ORDER`), so they must not call upward into
:class:`repro.gcs.membership.GroupMembership`.  The composition root
(:class:`repro.gcs.system.GroupCommunicationSystem`) inverts the dependency
with :class:`MembershipPort`: a small bundle of downward-facing callables
(current view, quorum size, join announcement) handed to the engine at
construction, plus a subscription that feeds view changes *down* into
:meth:`TotalOrderEngine.on_view_change`.

End-to-end delivery (Sect. 4) is a composition option, not a subclass: pass
a :class:`repro.gcs.message_log.GcsMessageLog` as ``journal`` and the engine
logs every delivery on stable storage, honours ``ack(m)`` and recovers by
replaying unacknowledged messages instead of asking for an application
checkpoint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..core.layers import implements, uses
from ..network.dispatch import Dispatcher
from ..network.message import Message
from ..network.node import Node
from ..sim.engine import Simulator
from ..sim.resources import Store
from .message_log import GcsMessageLog
from .reliable_broadcast import ReliableBroadcastLayer
from .spec import BroadcastTrace, DeliveryRecord


@dataclass
class Delivery:
    """One A-deliver event handed to the application."""

    payload: Any
    broadcast_id: str
    sequence: int
    delivered_at: float
    member: str
    replayed: bool = False


@dataclass
class _PendingMessage:
    broadcast_id: str
    payload: Any
    sender: str


@dataclass(frozen=True)
class MembershipPort:
    """Downward-facing handle onto the membership layer.

    Engines implement ``total_order``, which sits *below* ``membership`` in
    :data:`repro.core.layers.LAYER_ORDER`; they therefore never import or
    call the membership layer directly.  The composition root builds this
    port from the real :class:`~repro.gcs.membership.GroupMembership` and
    the engine only ever goes through it.
    """

    #: The static group, in sequencer-rank order.
    members: Tuple[str, ...]
    #: Returns the currently installed view.
    view: Callable[[], Any]
    #: Returns the quorum size (majority of the static group by default).
    quorum_size: Callable[[], int]
    #: Announces that ``member`` (re)joined; the membership layer reacts by
    #: installing a new view, which flows back down via ``on_view_change``.
    announce_join: Callable[[str], None]


@implements("total_order")
@uses("reliable_broadcast")
class TotalOrderEngine:
    """Base class: the endpoint surface shared by every ordering engine."""

    #: Registry name; subclasses override (stamped into reports/JSON).
    engine_name = "abstract"

    #: Message-kind namespace shared by every engine on the dispatcher.
    KIND_JOIN = "ABCAST.JOIN"
    KIND_JOIN_REPLY = "ABCAST.JOIN_REPLY"
    KIND_SYNC_REQUEST = "ABCAST.E2E.SYNC_REQUEST"
    KIND_SYNC_REPLY = "ABCAST.E2E.SYNC_REPLY"

    def __init__(self, sim: Simulator, node: Node, dispatcher: Dispatcher,
                 broadcast_layer: ReliableBroadcastLayer, group: MembershipPort,
                 member_name: Optional[str] = None,
                 delivery_cpu_time: float = 0.07,
                 trace: Optional[BroadcastTrace] = None,
                 journal: Optional[GcsMessageLog] = None) -> None:
        self.sim = sim
        self.node = node
        self.dispatcher = dispatcher
        self.rb = broadcast_layer
        self.group = group
        self.member_name = member_name or node.name
        self.delivery_cpu_time = delivery_cpu_time
        self.trace = trace
        #: Stable message log of the end-to-end composition, or ``None``
        #: for the classical primitive.
        self.journal = journal
        #: Deliveries ready for the application (A-deliver), in total order.
        self.deliveries: Store = Store(sim, name=f"{self.member_name}.deliveries")
        #: Provider of an application checkpoint for state transfer (set by
        #: the replication technique); called with no argument, returns state.
        self.checkpoint_provider: Optional[Callable[[], Any]] = None

        self._broadcast_counter = itertools.count(1)
        self._register_base_handlers()
        self._register_engine_handlers()
        self.node.add_listener(self._on_node_event)
        self._reset_volatile()

        #: Statistics.
        self.broadcast_count = 0
        self.delivered_count = 0
        self.ack_count = 0
        self.replayed_count = 0

    # ------------------------------------------------------------------ engine contract
    def coordinator(self) -> Optional[str]:
        """The member new broadcasts should be submitted to (or ``None``)."""
        raise NotImplementedError

    def _register_engine_handlers(self) -> None:
        """Register the engine's own message kinds on the dispatcher."""
        raise NotImplementedError

    def _reset_engine_state(self) -> None:
        """Drop the engine's volatile ordering state."""
        raise NotImplementedError

    def _submit(self, broadcast_id: str, payload: Any, target: str) -> None:
        """Ship an unordered message to ``target`` for sequencing."""
        raise NotImplementedError

    def _deliverable_up_to(self) -> float:
        """Highest sequence currently safe to A-deliver."""
        raise NotImplementedError

    def _engine_install_horizon(self, sequence: int) -> None:
        """Set engine counters exactly to a recovered horizon."""
        raise NotImplementedError

    def _engine_merge_horizon(self, sequence: int) -> None:
        """Merge one caught-up sequence into the engine counters."""
        raise NotImplementedError

    def _on_coordinator_change(self, view: Any, coordinator: str) -> None:
        """React to a view change (run a takeover protocol if needed)."""
        raise NotImplementedError

    def _on_excluded(self, view: Any) -> None:
        """React to being excluded from ``view`` while the node is alive.

        Only reached through a false (or partition-induced) suspicion: a
        crash resets the endpoint via the node listener before any view
        excluding it is installed.  The default keeps all state — engines
        whose ordering authority must not survive exclusion override this.
        """

    # ------------------------------------------------------------------ state
    def _reset_volatile(self) -> None:
        """(Re)initialise every piece of state that does not survive a crash."""
        self.rb.reset()
        self._ready: Store = Store(self.sim, name=f"{self.member_name}.ready")
        self._pending: Dict[int, _PendingMessage] = {}
        self._delivered_seq = 0
        self._delivered_ids: Set[str] = set()
        self._unsequenced: Dict[str, Any] = {}
        self._reset_engine_state()
        self._started = False

    def _on_node_event(self, node: Node, event: str) -> None:
        """Drop all volatile state when the hosting node crashes.

        Deliveries that were queued for the application but never processed
        are volatile too — losing them here is exactly the behaviour that
        makes classical atomic broadcast unable to provide 2-safety.
        """
        if event != "crash":
            return
        self.deliveries.clear()
        self._reset_volatile()
        self._started = False

    def _register_base_handlers(self) -> None:
        self.dispatcher.register(self.KIND_JOIN, self._on_join)
        self.dispatcher.register(self.KIND_JOIN_REPLY, self._on_join_reply)
        if self.journal is not None:
            self.dispatcher.register(self.KIND_SYNC_REQUEST,
                                     self._on_sync_request)
            self.dispatcher.register(self.KIND_SYNC_REPLY, self._on_sync_reply)

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the endpoint's outbound channel and its delivery process."""
        if self._started:
            return
        self._started = True
        self.rb.start()
        self.node.spawn(self._delivery_loop(), name="abcast.delivery")

    @property
    def is_sequencer(self) -> bool:
        """True if this member currently coordinates the total order."""
        return self.coordinator() == self.member_name

    def current_sequencer(self) -> Optional[str]:
        """Name of the current coordinator (None if the view is empty)."""
        return self.coordinator()

    @property
    def message_log(self):
        """The stable delivery log (end-to-end composition only)."""
        return self.journal

    # ------------------------------------------------------------------ A-broadcast
    def broadcast(self, payload: Any) -> str:
        """A-broadcast ``payload`` to the group; returns the broadcast id.

        The call is asynchronous (fire-and-forget), mirroring the A-send of
        Fig. 4: the sender learns the outcome by A-delivering its own message.
        """
        broadcast_id = f"{self.member_name}#{next(self._broadcast_counter)}"
        self._unsequenced[broadcast_id] = payload
        if self.trace is not None:
            self.trace.record_send(broadcast_id)
        obs = self.sim.obs
        if obs is not None:
            obs.instant("abcast.broadcast", track=f"gcs.{self.member_name}",
                        labels={"broadcast_id": broadcast_id})
        self.broadcast_count += 1
        target = self.coordinator()
        if target is not None:
            self._submit(broadcast_id, payload, target)
        return broadcast_id

    # ------------------------------------------------------------------ outbound
    def _post(self, kind: str, destination: str, payload: Any) -> None:
        """Hand one protocol message to the broadcast layer."""
        self.rb.send(Message(sender=self.member_name,
                             destination=destination, kind=kind,
                             payload=payload))

    def _post_view(self, kind: str, payload: Any) -> None:
        """Post one protocol message to every current view member (this one
        included) as one network operation: one send charge, one LAN
        broadcast, a copy per member one latency later."""
        self.rb.broadcast(Message(sender=self.member_name, destination="*",
                                  kind=kind, payload=payload),
                          self.group.view().members)

    # ------------------------------------------------------------------ ordering → delivery
    def _try_deliver(self) -> None:
        """Move contiguously ordered-and-safe messages to the delivery process."""
        limit = self._deliverable_up_to()
        while True:
            next_seq = self._delivered_seq + 1
            if next_seq > limit or next_seq not in self._pending:
                break
            entry = self._pending.pop(next_seq)
            self._delivered_seq = next_seq
            if entry.broadcast_id in self._delivered_ids:
                continue  # uniform integrity: never hand a duplicate upward
            self._delivered_ids.add(entry.broadcast_id)
            self._ready.put((next_seq, entry, False))

    def _install_horizon(self, sequence: int) -> None:
        """Set the delivery horizon exactly (recovery from a log or reply)."""
        self._delivered_seq = sequence
        self._engine_install_horizon(sequence)

    def _merge_horizon(self, sequence: int) -> None:
        """Monotonically merge one caught-up sequence into the horizon."""
        self._delivered_seq = max(self._delivered_seq, sequence)
        self._engine_merge_horizon(sequence)

    # ------------------------------------------------------------------ delivery
    def _delivery_loop(self):
        while True:
            sequence, entry, replayed = yield self._ready.get()
            if self.delivery_cpu_time:
                yield self.node.cpu.use(self.delivery_cpu_time)
            journal = self.journal
            if journal is not None:
                # Log the delivery on stable storage before handing it
                # upward (the end-to-end composition, Sect. 4).
                if journal.log_time:
                    yield self.node.cpu.use(self.node.cpu_time_per_io)
                    yield self.node.disk.use(journal.log_time)
                journal.record_delivery(sequence, entry.broadcast_id,
                                        entry.payload, self.sim.now)
            delivery = Delivery(payload=entry.payload,
                                broadcast_id=entry.broadcast_id,
                                sequence=sequence, delivered_at=self.sim.now,
                                member=self.member_name, replayed=replayed)
            self.delivered_count += 1
            if self.trace is not None:
                self.trace.record_delivery(DeliveryRecord(
                    member=self.member_name, broadcast_id=entry.broadcast_id,
                    sequence=sequence, delivered_at=self.sim.now))
            obs = self.sim.obs
            if obs is not None:
                obs.instant("abcast.deliver", track=f"gcs.{self.member_name}",
                            labels={"broadcast_id": entry.broadcast_id,
                                    "sequence": sequence,
                                    "replayed": replayed})
            self.deliveries.put(delivery)

    def acknowledge(self, delivery: Delivery) -> None:
        """Signal successful delivery (ack(m), Fig. 6).

        The classical primitive has no provision for this — without a
        delivery journal the call is accepted and ignored, which is exactly
        the model mismatch Sect. 3 describes.  With the end-to-end journal
        the acknowledgement is durably recorded, excluding the message from
        post-crash replay.
        """
        if self.journal is None:
            return
        self.ack_count += 1
        self.journal.record_ack(delivery.broadcast_id, self.sim.now)
        if self.trace is not None:
            for record in self.trace.deliveries:
                if record.member == self.member_name and \
                        record.broadcast_id == delivery.broadcast_id:
                    record.acknowledged = True
                    record.acknowledged_at = self.sim.now

    # ------------------------------------------------------------------ view changes
    def on_view_change(self, view: Any) -> None:
        """Entry point for view installations (wired by the composition root)."""
        if self.node.is_crashed or not self._started:
            return
        if self.member_name not in view.members:
            # Excluded while alive: the failure detector suspected us (a
            # netsplit, not a crash), so the node listener never fired.  Any
            # ordering authority we held is void in the new view — engines
            # that hold coordinator state must drop it here, or a later
            # rejoin re-asserts stale assignments over sequences the
            # surviving majority has meanwhile given to other messages.
            self._on_excluded(view)
            return
        coordinator = self.coordinator()
        if coordinator is None:
            return
        # Re-send messages of ours that were never ordered to the (possibly
        # new) coordinator.
        for broadcast_id, payload in list(self._unsequenced.items()):
            self._submit(broadcast_id, payload, coordinator)
        self._on_coordinator_change(view, coordinator)

    # ------------------------------------------------------------------ recovery
    def recover(self, rejoin_timeout: float = 10.0):
        """Generator: recover after a crash.

        The endpoint resets its volatile state, restarts its processes and
        rejoins the group.  What happens next depends on the composition:

        * **classical** (no journal, dynamic crash no-recovery model): a live
          member supplies an application *checkpoint* via state transfer,
          which is returned (or ``None`` when nobody answered).  Delivered-
          but-unprocessed messages are *not* replayed — the behaviour
          Sect. 3 of the paper builds its impossibility argument on.
        * **end-to-end** (journal, static crash recovery model): the delivery
          horizon is rebuilt from the stable message log, every
          unacknowledged message is replayed to the application and missed
          messages are fetched from live peers; returns the replay count.
        """
        self._reset_volatile()
        self._started = False
        if not self.dispatcher.is_running:
            self.dispatcher.start()
        self.start()
        self.group.announce_join(self.member_name)
        if self.journal is None:
            return (yield from self._recover_by_state_transfer(rejoin_timeout))
        return (yield from self._recover_by_replay(rejoin_timeout))

    def _recover_by_state_transfer(self, rejoin_timeout: float):
        reply_box: Store = Store(self.sim,
                                 name=f"{self.member_name}.join_replies")
        self._join_replies = reply_box
        self._post_view(self.KIND_JOIN, {"member": self.member_name})
        timeout = self.sim.timeout(rejoin_timeout)
        first_reply = reply_box.get()
        outcome = yield self.sim.any_of([first_reply, timeout])
        if first_reply in outcome:
            reply = first_reply.value
            self._install_horizon(reply["delivered_seq"])
            return reply["checkpoint"]
        return None

    def _recover_by_replay(self, rejoin_timeout: float):
        logged = self.journal.entries()
        self._install_horizon(self.journal.highest_sequence())
        self._delivered_ids = {entry.broadcast_id for entry in logged}

        # Replay unacknowledged messages to the application (Fig. 7).
        replayed = 0
        for entry in self.journal.unacknowledged():
            delivery = Delivery(payload=entry.payload,
                                broadcast_id=entry.broadcast_id,
                                sequence=entry.sequence,
                                delivered_at=self.sim.now,
                                member=self.member_name, replayed=True)
            self.replayed_count += 1
            replayed += 1
            self.deliveries.put(delivery)

        # Catch up on messages delivered by others while we were down.
        reply_box: Store = Store(self.sim,
                                 name=f"{self.member_name}.sync_replies")
        self._sync_replies = reply_box
        self._post_view(self.KIND_SYNC_REQUEST,
                        {"member": self.member_name,
                         "have_up_to": self._delivered_seq})
        timeout = self.sim.timeout(rejoin_timeout)
        first_reply = reply_box.get()
        outcome = yield self.sim.any_of([first_reply, timeout])
        if first_reply in outcome:
            for entry in sorted(first_reply.value["entries"],
                                key=lambda e: e["sequence"]):
                if entry["broadcast_id"] in self._delivered_ids:
                    continue
                self._delivered_ids.add(entry["broadcast_id"])
                self._merge_horizon(entry["sequence"])
                self._ready.put((entry["sequence"],
                                 _PendingMessage(
                                     broadcast_id=entry["broadcast_id"],
                                     payload=entry["payload"],
                                     sender=entry["origin"]),
                                 True))
        return replayed

    # ------------------------------------------------------------------ rejoin protocol
    def _on_join(self, message: Message) -> None:
        joining = message.payload["member"]
        self.group.announce_join(joining)
        if joining == self.member_name:
            return
        checkpoint = self.checkpoint_provider() if self.checkpoint_provider \
            else None
        self._post(self.KIND_JOIN_REPLY, joining,
                   {"delivered_seq": self._delivered_seq,
                    "checkpoint": checkpoint, "member": self.member_name})

    def _on_join_reply(self, message: Message) -> None:
        box = getattr(self, "_join_replies", None)
        if box is not None:
            box.put(message.payload)

    # ------------------------------------------------------------------ e2e catch-up protocol
    def _on_sync_request(self, message: Message) -> None:
        if message.payload["member"] == self.member_name:
            return
        have_up_to = message.payload["have_up_to"]
        entries = [{"sequence": entry.sequence,
                    "broadcast_id": entry.broadcast_id,
                    "payload": entry.payload,
                    "origin": self.member_name}
                   for entry in self.journal.entries()
                   if entry.sequence > have_up_to]
        self._post(self.KIND_SYNC_REPLY, message.payload["member"],
                   {"entries": entries, "member": self.member_name})

    def _on_sync_reply(self, message: Message) -> None:
        box = getattr(self, "_sync_replies", None)
        if box is not None:
            box.put(message.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<{type(self).__name__} {self.member_name} "
                f"delivered={self._delivered_seq}>")
