"""Total-order broadcast engines: shared machinery and the engine contract.

The paper's replication techniques are written against *atomic broadcast*
(Sect. 2.3) and do not care how the total order is produced.  This module
captures exactly that boundary: :class:`TotalOrderEngine` is the per-member
endpoint the application sees (``broadcast`` / ``deliveries`` /
``acknowledge`` / ``recover``), plus everything every ordering protocol
needs — the served delivery queue, duplicate suppression, the JOIN rejoin
exchange, the per-member catch-up, and the optional end-to-end delivery
journal — while the ordering protocol itself lives in a subclass:

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

A rejoin is one exchange in both compositions: the recovering member posts
``JOIN(member, have_up_to)`` to the view and takes the first reply.
``have_up_to`` is ``None`` in the classical composition, and a peer answers
with the pair its application hands out: the sequence of the last delivery
its state reflects, and that state.  The joiner installs exactly that
sequence, so a delivery the provider's application has not finished (Fig. 5,
at the provider) is outside both the state and the horizon, and reaches the
joiner through the ordering protocol.  With the journal ``have_up_to`` is the
highest logged sequence, and a peer answers with its logged deliveries above
it.

Catch-up is per member, on both engines, and it is the one repair path for
a lost ordering message, whether a crash, a split or a lossy link lost it.
Every member reports its delivery horizon to the coordinator on the
engine's acknowledgements (and on its answer to a leader change), and the
coordinator acts on each report as it arrives.  The evidence of a loss is
the one fact a FIFO link gives: a member that holds an entry above one it
lacks (:meth:`TotalOrderEngine._lacks_below`) lost that one, and says so
on the acknowledgement of the entry it holds.  The coordinator then fills
it, point to point, from the horizon that report carries up to that
entry, once per loss: only a report on an entry posted after that fill
went out asks again.  A view installation fills no member: one that
stayed in the view, a re-admitted member and a joiner each show what they
lack on the first entry posted to them after it (a fixed-sequencer member
re-admitted after an exclusion reports at once: only its sequencer holds
what it lacks).  A Multi-Paxos
member answers in order, so its ``ACCEPTED`` of a slot also shows the
leader every earlier undecided slot it never answered, and the leader
posts it that ``ACCEPT`` again (a fixed-sequencer ``ACK`` is cumulative,
so the next one covers a lost one).  A member that learns an entry
above one it answered but never learned reports the gap with a fresh
answer, since its last answer went out before the gap showed
(Multi-Paxos; a fixed-sequencer member learns the stable horizon, not
each entry).  The same evidence serves a member's own
broadcasts: one ordered while an older one is not yet ordered means the
older submission was lost, and the member submits it again.  A rejoining
member reports no horizon until its rejoin installed one.  An engine
supplies only its log of decided entries
(:meth:`TotalOrderEngine._decided_log`), the highest entry it posted, and
how a run of decided entries is posted to one member
(:meth:`TotalOrderEngine._post_fill`); a member can be filled only from
what its coordinator's log holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.layers import implements, uses
from ..network.dispatch import Dispatcher
from ..network.message import Message
from ..network.node import Node
from ..sim.engine import Simulator
from ..sim.events import Event
from ..sim.resources import Store
from .message_log import GcsMessageLog
from .reliable_broadcast import ReliableBroadcastLayer


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


def _broadcast_number(broadcast_id: str) -> int:
    """The per-origin number of an ``origin#n`` broadcast id."""
    return int(broadcast_id.rsplit("#", 1)[1])


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

    #: Message-kind namespace shared by every engine on the dispatcher.
    KIND_JOIN = "ABCAST.JOIN"
    KIND_JOIN_REPLY = "ABCAST.JOIN_REPLY"

    def __init__(self, sim: Simulator, node: Node, dispatcher: Dispatcher,
                 broadcast_layer: ReliableBroadcastLayer, group: MembershipPort,
                 member_name: Optional[str] = None,
                 journal: Optional[GcsMessageLog] = None,
                 failure_detector: Any = None) -> None:
        self.sim = sim
        self.node = node
        self.dispatcher = dispatcher
        self.rb = broadcast_layer
        self.group = group
        self.member_name = member_name or node.name
        #: Stable message log of the end-to-end composition, or ``None``
        #: for the classical primitive.
        self.journal = journal
        #: The group's failure detector, for engines that take their leader
        #: from it (the fixed sequencer takes its coordinator from the view).
        self.failure_detector = failure_detector
        #: Deliveries ready for the application (A-deliver), in total order.
        self.deliveries: Store = Store(sim, name=f"{self.member_name}.deliveries")
        #: Provider of an application checkpoint for state transfer (set by
        #: the replication technique); called with no argument, returns
        #: ``(sequence, state)``: the state and the last delivery it reflects.
        self.checkpoint_provider: Optional[
            Callable[[], Tuple[int, Any]]] = None

        self._broadcast_counter = itertools.count(1)
        # True while a rejoin has not installed a horizon yet (a JOIN reply,
        # or the journal and its catch-up): this member has none to report.
        self._rejoining = False
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

    def _decided_log(self) -> Dict[int, Any]:
        """Every entry this member knows is decided, by sequence: what a
        member that lacks it may be sent."""
        raise NotImplementedError

    def _post_fill(self, member: str, entries: List[Tuple[int, Any]]) -> None:
        """Post ``member`` the decided ``(sequence, entry)`` pairs, in
        order, point to point."""
        raise NotImplementedError

    def _posted_up_to(self) -> int:
        """Highest sequence this member, as coordinator, has posted to the
        view for ordering."""
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
        # Replies to this member's JOIN, while its rejoin waits for one.
        self._join_replies: Optional[Store] = None
        # Per member, the highest sequence posted when the gap it reported
        # was last filled: a report on an entry at or below it was sent
        # before that fill could arrive.
        self._refilled: Dict[str, int] = {}
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
        self._ready.clear()
        self.deliveries.clear()
        self._reset_volatile()

    def _register_base_handlers(self) -> None:
        self.dispatcher.register(self.KIND_JOIN, self._on_join)
        self.dispatcher.register(self.KIND_JOIN_REPLY, self._on_join_reply)

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the endpoint's outbound channel and serve its ordered
        messages: each takes one network operation of CPU
        (:meth:`~repro.network.node.Node.serve`) and is then handed up."""
        if self._started:
            return
        self._started = True
        self.rb.start()
        self.node.serve(self._ready, self._hand_up)

    @property
    def is_sequencer(self) -> bool:
        """True if this member currently coordinates the total order."""
        return self.coordinator() == self.member_name

    # ------------------------------------------------------------------ A-broadcast
    def broadcast(self, payload: Any) -> str:
        """A-broadcast ``payload`` to the group; returns the broadcast id.

        The call is asynchronous (fire-and-forget), mirroring the A-send of
        Fig. 4: the sender learns the outcome by A-delivering its own message.
        """
        broadcast_id = f"{self.member_name}#{next(self._broadcast_counter)}"
        self._unsequenced[broadcast_id] = payload
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
        """Queue contiguously ordered-and-safe messages for A-delivery."""
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
        """Set the delivery horizon exactly (recovery from a log or reply);
        what was ordered at or below it is delivered or covered."""
        self._delivered_seq = sequence
        self._pending = {seq: entry for seq, entry in self._pending.items()
                         if seq > sequence}

    # ------------------------------------------------------------------ delivery
    def _hand_up(self, item: Tuple[int, _PendingMessage, bool]
                 ) -> Optional[Event]:
        """A-deliver one served message, its delivery charge paid.

        With the end-to-end journal the delivery is first logged on stable
        storage (Sect. 4): a CPU charge for the I/O, then ``log_time`` on a
        disk.  The returned event fires once the message is handed up, and
        the next message's delivery charge waits for it.
        """
        journal = self.journal
        if journal is None or not journal.log_time:
            self._deliver(item)
            return None
        node = self.node
        logged = Event(self.sim)

        def written() -> None:
            self._deliver(item)
            logged.succeed()

        node.cpu.use_then(node.cpu_time_per_io,
                          lambda: node.disk.use_then(journal.log_time,
                                                     written))
        return logged

    def _deliver(self, item: Tuple[int, _PendingMessage, bool]) -> None:
        sequence, entry, replayed = item
        if self.journal is not None:
            self.journal.record_delivery(sequence, entry.broadcast_id,
                                         entry.payload, self.sim.now)
        delivery = Delivery(payload=entry.payload,
                            broadcast_id=entry.broadcast_id,
                            sequence=sequence, delivered_at=self.sim.now,
                            member=self.member_name, replayed=replayed)
        self.delivered_count += 1
        obs = self.sim.obs
        if obs is not None:
            obs.instant("abcast.deliver", track=f"gcs.{self.member_name}",
                        labels={"broadcast_id": entry.broadcast_id,
                                "sequence": sequence, "replayed": replayed})
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
        obs = self.sim.obs
        if obs is not None:
            obs.instant("abcast.ack", track=f"gcs.{self.member_name}",
                        labels={"broadcast_id": delivery.broadcast_id})

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
            # surviving majority has meanwhile given to other messages.  A
            # later tenure marks its own refills.
            self._refilled = {}
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

    # ------------------------------------------------------------------ catch-up
    def _report(self, entry: int = 0) -> Dict[str, Any]:
        """The report this member's answers carry to its coordinator: its
        name, its delivery horizon (none until a rejoin installed one), and
        whether, holding ``entry``, it lacks an entry below it."""
        return {"member": self.member_name,
                "horizon": None if self._rejoining else self._delivered_seq,
                "gap": self._lacks_below(entry)}

    def _fill(self, member: str, horizon: int,
              upto: Optional[int] = None) -> None:
        """Post ``member`` every decided entry above ``horizon`` (up to
        ``upto``), point to point."""
        log = self._decided_log()
        if upto is None:
            upto = max(log, default=horizon)
        entries = [(sequence, log[sequence])
                   for sequence in range(horizon + 1, upto + 1)
                   if sequence in log]
        if entries:
            self._post_fill(member, entries)

    def _lacks_below(self, entry: int) -> bool:
        """Whether this member, holding ``entry``, lacks an entry below it.
        Only the entry after the horizon is looked at: a gap above that
        one shows once the horizon reaches it."""
        lacking = self._delivered_seq + 1
        return entry > lacking and lacking not in self._pending

    def _note_report(self, report: Dict[str, Any], entry: int = 0) -> None:
        """Act on a member's report.  One that shows a gap below ``entry``
        gets the entries from its horizon up to that entry, unless the gap
        was filled after ``entry`` was posted: that fill is on its way."""
        member, horizon = report["member"], report["horizon"]
        if horizon is None or member == self.member_name:
            return
        if report["gap"] and entry > self._refilled.get(member, 0):
            self._refilled[member] = self._posted_up_to()
            self._fill(member, horizon, entry - 1)

    def _ordered(self, broadcast_id: str) -> None:
        """``broadcast_id`` was ordered.  If it is one of ours, every older
        one of ours still unordered was lost on its way to the coordinator
        (the link is FIFO): submit it again."""
        if broadcast_id not in self._unsequenced:
            return
        del self._unsequenced[broadcast_id]
        number, target = _broadcast_number(broadcast_id), self.coordinator()
        for older, payload in list(self._unsequenced.items()):
            if target is not None and _broadcast_number(older) < number:
                self._submit(older, payload, target)

    # ------------------------------------------------------------------ recovery
    def recover(self, rejoin_timeout: float = 10.0):
        """Generator: recover after a crash.

        The endpoint resets its volatile state, restarts its processes and
        rejoins the group with one JOIN, taking the first reply (or none
        within ``rejoin_timeout``).  What it asks for depends on the
        composition:

        * **classical** (no journal, dynamic crash no-recovery model): a live
          member supplies an application *checkpoint* via state transfer,
          which is returned (or ``None`` when nobody answered), and the
          endpoint installs the delivery the checkpoint reflects as its
          horizon.  Delivered-but-unprocessed messages are *not* replayed —
          the behaviour Sect. 3 of the paper builds its impossibility
          argument on.
        * **end-to-end** (journal, static crash recovery model): the delivery
          horizon is rebuilt from the stable message log, every
          unacknowledged message is replayed to the application, and the
          reply carries the messages live peers logged above that horizon;
          returns the replay count.
        """
        self._rejoining = True
        self._reset_volatile()
        if not self.dispatcher.is_running:
            self.dispatcher.start()
        self.start()
        self.group.announce_join(self.member_name)
        journal = self.journal
        replayed = 0
        have_up_to = None
        if journal is not None:
            have_up_to = journal.highest_sequence()
            self._install_horizon(have_up_to)
            self._delivered_ids = {entry.broadcast_id
                                   for entry in journal.entries()}
            # Replay unacknowledged messages to the application (Fig. 7).
            for entry in journal.unacknowledged():
                self.replayed_count += 1
                replayed += 1
                self.deliveries.put(Delivery(
                    payload=entry.payload, broadcast_id=entry.broadcast_id,
                    sequence=entry.sequence, delivered_at=self.sim.now,
                    member=self.member_name, replayed=True))

        replies = self._join_replies = Store(
            self.sim, name=f"{self.member_name}.join_replies")
        self._post_view(self.KIND_JOIN, {"member": self.member_name,
                                         "have_up_to": have_up_to})
        timeout = self.sim.timeout(rejoin_timeout)
        first_reply = replies.get()
        outcome = yield self.sim.any_of([first_reply, timeout])
        self._join_replies = None
        # What follows installs the horizon, or finds there is none to get.
        self._rejoining = False
        if first_reply not in outcome:
            return None if journal is None else replayed
        reply = first_reply.value
        if journal is not None:
            self._catch_up(reply["entries"])
            return replayed
        self._install_horizon(reply["sequence"])
        return reply["checkpoint"]

    def _catch_up(self, entries) -> None:
        """Hand up the messages a peer logged while this member was down."""
        horizon = self._delivered_seq
        for entry in sorted(entries, key=lambda e: e["sequence"]):
            if entry["broadcast_id"] in self._delivered_ids:
                continue
            self._delivered_ids.add(entry["broadcast_id"])
            horizon = max(horizon, entry["sequence"])
            self._ready.put((entry["sequence"],
                             _PendingMessage(
                                 broadcast_id=entry["broadcast_id"],
                                 payload=entry["payload"],
                                 sender=entry["origin"]),
                             True))
        if horizon > self._delivered_seq:
            self._install_horizon(horizon)

    # ------------------------------------------------------------------ rejoin protocol
    def _on_join(self, message: Message) -> None:
        request = message.payload
        joining = request["member"]
        self.group.announce_join(joining)
        if joining == self.member_name:
            return
        have_up_to = request["have_up_to"]
        if have_up_to is not None:
            reply = {"entries": [{"sequence": entry.sequence,
                                  "broadcast_id": entry.broadcast_id,
                                  "payload": entry.payload,
                                  "origin": self.member_name}
                                 for entry in self.journal.entries()
                                 if entry.sequence > have_up_to]}
        else:
            sequence, checkpoint = self.checkpoint_provider() \
                if self.checkpoint_provider else (self._delivered_seq, None)
            reply = {"sequence": sequence, "checkpoint": checkpoint}
        self._post(self.KIND_JOIN_REPLY, joining, reply)

    def _on_join_reply(self, message: Message) -> None:
        if self._join_replies is not None:
            self._join_replies.put(message.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<{type(self).__name__} {self.member_name} "
                f"delivered={self._delivered_seq}>")
