"""Total-order broadcast: one ordering engine under two leader policies.

The paper's replication techniques are written against *atomic broadcast*
(Sect. 2.3) and do not care how the total order is produced.  This module
captures exactly that boundary: :class:`TotalOrderEngine` is the per-member
endpoint the application sees (``broadcast`` / ``deliveries`` /
``acknowledge`` / ``recover``), plus the one ordering protocol under it —
Multi-Paxos with a cumulative decision — and everything around it: the
served delivery queue, duplicate suppression, the JOIN rejoin exchange, the
per-member catch-up and the optional end-to-end delivery journal.  A
subclass names only its leader policy and its message kinds:

* :class:`repro.gcs.fixed_sequencer.FixedSequencerEngine` — the leader is
  the view's primary: the classical fixed sequencer, whose failure-free
  schedule is the seed's, bit for bit;
* :class:`repro.gcs.paxos.MultiPaxosEngine` — the leader is Ω, the
  lowest-ranked member the failure detector trusts.

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

Ordering (fixed-policy kind names first, Multi-Paxos's second).  A
broadcast is submitted to the leader (``DATA`` / ``PROPOSE``), which gives
it the next sequence number and posts it to the view with its ballot
(``SEQ`` / ``ACCEPT``).  Every member keeps what it accepted, with the
ballot that assigned it, and answers (``ACK`` / ``ACCEPTED``) with
``held``: the highest sequence it holds with every one below it, counting
what it delivered and only the entries of that ballot.  Once a quorum
(majority of the static group) holds a sequence, the leader posts the
decision ``up_to`` (``STABLE`` / ``LEARN``) once; it is cumulative, so a
later one subsumes an earlier one.  A member delivers, in order, each entry
at or below the decision that it holds at the decision's ballot, so an
entry an older leader assigned is never delivered over a newer one's.  A
broadcast to N members therefore costs 1 + N + N + at most N = 3N + 1
messages in a quiet run, and delivery is uniform: no member delivers what
the crash of a minority could lose.

Leader change.  A new leader claims a higher ballot and collects from its
own delivery horizon: ``PREPARE(ballot, from)`` / ``PROMISE``
(``VC_REQUEST`` / ``VC_STATE``), each promise carrying what its member
accepted from there on.  Once a quorum promised, the leader posts at its
ballot, per sequence, the entry of the highest ballot any promise carried,
and a no-op for a sequence no promise carried above every promiser's
horizon (Lamport, *Paxos Made Simple*, 2001, §3); a no-op is never handed
up.  Nothing is assigned before then: submissions wait.  On a fresh start
the first leader holds the first ballot without a collection, since nobody
holds anything yet; a rejoin or an exclusion never re-establishes a ballot
without one, and a rejoining leader collects once its rejoin installed a
horizon.  Both policies claim ballots one way
(:meth:`TotalOrderEngine._begin_prepare`).  A member that promised a
ballot answers a collection at one no higher, or a post at a lower one,
with ``NACK(promised)``, and a leader refused at its current ballot claims
a higher one and collects again.

Catch-up is per member, and it is the one repair path for a lost ordering
message, whether a crash, a split, a lossy link or a takeover lost it.  A
member's answer that holds less than the entry it answers (``held <
entry``) shows a loss: a lost post, an entry an older leader assigned, a
gap older than the leader's tenure, what a state transfer left out.  The
leader then posts that member, point to point, each entry of its log from
``held`` up to that entry at its own ballot, then its decision, once per
loss: only an answer on an entry posted after that fill asks again.  A view
installation fills no member.  A lost answer needs no repair (the next one
covers it), nor does a lost decision (the next one subsumes it).  The same
evidence serves a member's own broadcasts: one delivered while an older one
is not yet means the older submission was lost or its entry superseded, and
the member submits it again.  A rejoining member reports no horizon until
its rejoin installed one, and a member can be filled only from what its
leader's log holds.
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


#: An accepted entry: the ballot that assigned it, and the message (``None``
#: for a no-op).
_Accepted = Tuple[int, Optional[_PendingMessage]]


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
    """Base class: the endpoint and the ordering protocol; a subclass names
    its leader policy and its message kinds."""

    KIND_JOIN = "ABCAST.JOIN"
    KIND_JOIN_REPLY = "ABCAST.JOIN_REPLY"
    #: The policy's kinds: a submission to the leader, the leader's post of
    #: an entry, a member's answer, the decision, the collection's request
    #: and its answer, and a refusal of a stale ballot.
    KIND_SUBMIT = KIND_ORDER = KIND_ANSWER = KIND_DECIDE = ""
    KIND_PREPARE = KIND_PROMISE = KIND_NACK = ""

    def __init__(self, sim: Simulator, node: Node, dispatcher: Dispatcher,
                 broadcast_layer: ReliableBroadcastLayer, group: MembershipPort,
                 journal: Optional[GcsMessageLog] = None,
                 failure_detector: Any = None) -> None:
        self.sim = sim
        self.node = node
        self.dispatcher = dispatcher
        self.rb = broadcast_layer
        self.group = group
        self.member_name = node.name
        #: Stable message log of the end-to-end composition, or ``None``
        #: for the classical primitive.
        self.journal = journal
        #: The group's failure detector, for a policy that takes its leader
        #: from it (the fixed policy takes it from the view).
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
        self._register_handlers()
        self.node.add_listener(self._on_node_event)
        self._reset_volatile()
        # A fresh start: nobody holds anything yet, so the first leader
        # holds the first ballot without a collection.
        self._established = self.is_sequencer

        #: Statistics.
        self.broadcast_count = 0
        self.delivered_count = 0
        self.ack_count = 0
        self.replayed_count = 0
        self.prepare_count = 0

    # ------------------------------------------------------------------ leader policy
    def coordinator(self) -> Optional[str]:
        """The member new broadcasts should be submitted to (or ``None``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ state
    def _reset_volatile(self) -> None:
        """(Re)initialise every piece of state that does not survive a crash."""
        self.rb.reset()
        self._ready: Store = Store(self.sim, name=f"{self.member_name}.ready")
        self._delivered_seq = 0
        self._delivered_ids: Set[str] = set()
        # This member's broadcasts it has not delivered yet: an entry a
        # takeover superseded never is, so each new leader gets them again.
        self._undelivered: Dict[str, Any] = {}
        # Replies to this member's JOIN, while its rejoin waits for one.
        self._join_replies: Optional[Store] = None
        # Acceptor state: the highest ballot promised, what was accepted (by
        # sequence, delivered entries included) and the latest decision
        # ``(ballot, up_to)``.
        self._promised = 0
        self._log: Dict[int, _Accepted] = {}
        self._decided = (0, 0)
        # Leader state: the ballot led, and whether it is established (its
        # collection done) or collecting from ``_prepare_from``.
        self._ballot = 0
        self._established = False
        self._preparing = False
        self._prepare_from = 1
        self._promises: Dict[str, Dict[str, Any]] = {}
        self._next_seq = 1
        # The broadcast ids this tenure gave a sequence, and the submissions
        # waiting for its collection.
        self._assigned_ids: Set[str] = set()
        self._backlog: Dict[str, _PendingMessage] = {}
        # Per member, the highest ``held`` its answers reported at this
        # ballot, and the highest decision posted.
        self._acked: Dict[str, int] = {}
        self._announced = 0
        # Per member, the highest sequence posted when the gap it reported
        # was last filled: a report on an entry at or below it was sent
        # before that fill could arrive.
        self._refilled: Dict[str, int] = {}
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

    def _register_handlers(self) -> None:
        for kind, handler in (
                (self.KIND_JOIN, self._on_join),
                (self.KIND_JOIN_REPLY, self._on_join_reply),
                (self.KIND_SUBMIT, self._on_submit),
                (self.KIND_ORDER, self._on_order),
                (self.KIND_ANSWER, self._on_answer),
                (self.KIND_DECIDE, self._on_decide),
                (self.KIND_PREPARE, self._on_prepare),
                (self.KIND_PROMISE, self._on_promise),
                (self.KIND_NACK, self._on_nack)):
            self.dispatcher.register(kind, handler)

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
        self._undelivered[broadcast_id] = payload
        obs = self.sim.obs
        if obs is not None:
            obs.instant("abcast.broadcast", track=f"gcs.{self.member_name}",
                        labels={"broadcast_id": broadcast_id})
        self.broadcast_count += 1
        target = self.coordinator()
        if target is not None:
            self._submit(broadcast_id, payload, target)
        return broadcast_id

    def _submit(self, broadcast_id: str, payload: Any, target: str) -> None:
        """Ship an unordered message to ``target`` for sequencing."""
        self._post(self.KIND_SUBMIT, target,
                   {"broadcast_id": broadcast_id, "payload": payload,
                    "origin": self.member_name})

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

    def _post_entry(self, sequence: int, entry: Optional[_PendingMessage],
                    member: Optional[str] = None) -> None:
        """Post ``entry`` at ``sequence`` and this member's ballot to the
        view, or to ``member``."""
        order = {"ballot": self._ballot, "sequence": sequence, "entry": entry}
        if member is None:
            self._post_view(self.KIND_ORDER, order)
        else:
            self._post(self.KIND_ORDER, member, order)

    # ------------------------------------------------------------------ leader
    def _on_submit(self, message: Message) -> None:
        payload = message.payload
        leader = self.coordinator()
        if leader != self.member_name:
            if leader is not None:   # a stale sender: forward to the leader
                self._post(self.KIND_SUBMIT, leader, payload)
            return
        broadcast_id = payload["broadcast_id"]
        if broadcast_id in self._assigned_ids or \
                broadcast_id in self._delivered_ids:
            return  # a duplicate resend after a leader change
        entry = _PendingMessage(broadcast_id=broadcast_id,
                                payload=payload["payload"],
                                sender=payload["origin"])
        if self._established:
            self._assign(entry)
        else:
            self._backlog[broadcast_id] = entry
            self._lead()

    def _assign(self, entry: _PendingMessage) -> None:
        # The leader accepts its entry as every member does, when its own
        # copy of the post arrives: before any answer to it can.
        sequence = self._next_seq
        self._next_seq += 1
        self._assigned_ids.add(entry.broadcast_id)
        self._post_entry(sequence, entry)

    def _lead(self) -> None:
        """Collect, unless a collection runs, the ballot stands or this
        member has no horizon yet."""
        if not (self._established or self._preparing or self._rejoining):
            self._begin_prepare()

    def _begin_prepare(self) -> None:
        """Claim a new ballot and collect from the first sequence this
        member has not delivered.

        The ballot is the next one this member's rank owns (ballots are
        congruent to the rank modulo the group size, so no two members
        claim the same one) above any it promised or led and above
        ``view_id`` group sizes.  That floor outbids one claim per earlier
        view, so a leader that a view change made or re-admitted is not
        refused after it lost its promise in a crash.  A leader back within
        one view may claim a ballot it held before: the members that
        promised it answer ``NACK`` and it claims a higher one."""
        size = len(self.group.members)
        highest = max(self._promised, self._ballot,
                      self.group.view().view_id * size)
        self._ballot = (highest // size + 1) * size + \
            self.group.members.index(self.member_name)
        self._preparing, self._established = True, False
        self._promises, self._acked, self._refilled = {}, {}, {}
        self._assigned_ids = set()
        self._prepare_from = self._delivered_seq + 1
        self.prepare_count += 1
        self._post_view(self.KIND_PREPARE, {"ballot": self._ballot,
                                            "from": self._prepare_from})

    def _on_promise(self, message: Message) -> None:
        payload = message.payload
        if payload["ballot"] != self._ballot or not self._preparing:
            return  # a late promise: the ballot stands, or was given up
        self._promises[payload["member"]] = payload
        if len(self._promises) < self.group.quorum_size():
            return
        self._preparing, self._established = False, True
        # Per sequence, the entry of the highest ballot a promise carried,
        # posted again at this ballot.  One at or below a promiser's horizon
        # was delivered, so it is decided: this member takes it at its
        # ballot without posting it, and no no-op goes there even if no
        # promise carried it.
        start = self._prepare_from
        merged: Dict[int, _Accepted] = {}
        floor = start - 1
        for member in sorted(self._promises):
            promise = self._promises[member]
            if promise["horizon"] is not None:
                floor = max(floor, promise["horizon"])
            for sequence, (ballot, entry) in promise["accepted"].items():
                if sequence not in merged or ballot > merged[sequence][0]:
                    merged[sequence] = (ballot, entry)
        top = max(merged, default=start - 1)
        self._next_seq = max(top, floor) + 1
        for sequence in range(start, top + 1):
            known = merged.get(sequence)
            if known is None and sequence <= floor:
                continue
            entry = None if known is None else known[1]
            if entry is not None:
                self._assigned_ids.add(entry.broadcast_id)
            if sequence > floor:
                self._post_entry(sequence, entry)
            else:
                self._log[sequence] = (self._ballot, entry)
        self._announced = floor
        self._decided = (self._ballot, floor)
        self._try_deliver()
        backlog, self._backlog = self._backlog, {}
        for broadcast_id, entry in backlog.items():
            if broadcast_id not in self._assigned_ids and \
                    broadcast_id not in self._delivered_ids:
                self._assign(entry)

    def _on_answer(self, message: Message) -> None:
        payload = message.payload
        if payload["ballot"] != self._ballot or not self._established:
            return
        member, held, entry = \
            payload["member"], payload["held"], payload["sequence"]
        # A member holding less than the entry it answers lost what lies in
        # between: fill it, unless a fill posted after that entry is on its
        # way.  A rejoining member has nothing to fill from yet.
        if held < entry and payload["horizon"] is not None and \
                member != self.member_name and \
                entry > self._refilled.get(member, 0):
            self._refilled[member] = self._next_seq - 1
            self._fill(member, held, entry - 1)
        self._acked[member] = max(self._acked.get(member, 0), held)
        # A sequence is decided once a quorum holds it: announce the
        # contiguous prefix of the log up to the quorum-th largest ``held``.
        quorum = self.group.quorum_size()
        acked = sorted(self._acked.values(), reverse=True)
        held_by_quorum = acked[quorum - 1] if len(acked) >= quorum else 0
        up_to = self._announced
        while up_to < held_by_quorum and up_to + 1 in self._log:
            up_to += 1
        if up_to > self._announced:
            self._announced = up_to
            self._post_view(self.KIND_DECIDE,
                            {"ballot": self._ballot, "up_to": up_to})

    def _fill(self, member: str, held: int, upto: int) -> None:
        """Post ``member`` the entries of this member's log above ``held``
        up to ``upto`` at this ballot, then the decision, point to point."""
        entries = [(sequence, self._log[sequence][1])
                   for sequence in range(held + 1, upto + 1)
                   if sequence in self._log]
        if not entries:
            return
        for sequence, entry in entries:
            self._post_entry(sequence, entry, member)
        self._post(self.KIND_DECIDE, member,
                   {"ballot": self._ballot, "up_to": self._announced})

    # ------------------------------------------------------------------ member
    def _on_prepare(self, message: Message) -> None:
        ballot = message.payload["ballot"]
        if ballot <= self._promised:
            self._refuse(message.sender, ballot)
            return
        self._promised = ballot
        start = message.payload["from"]
        accepted = {sequence: known for sequence, known in self._log.items()
                    if sequence >= start}
        self._post(self.KIND_PROMISE, message.sender,
                   {"ballot": ballot, "accepted": accepted, **self._report()})

    def _on_order(self, message: Message) -> None:
        payload = message.payload
        ballot = payload["ballot"]
        if ballot < self._promised:
            self._refuse(message.sender, ballot)
            return
        self._promised = ballot
        sequence = payload["sequence"]
        self._log[sequence] = (ballot, payload["entry"])
        # Answer even what was delivered: the leader of a new ballot may
        # still be counting towards its quorum.
        held = self._delivered_seq
        while self._log.get(held + 1, (None,))[0] == ballot:
            held += 1
        self._post(self.KIND_ANSWER, message.sender,
                   {"ballot": ballot, "sequence": sequence, "held": held,
                    **self._report()})
        self._try_deliver()

    def _refuse(self, sender: str, ballot: int) -> None:
        """``sender`` posted for ``ballot``, at or below this member's
        promise: tell it the promise that beats it (it may have crashed and
        lost its high-water mark), so it can claim a higher ballot."""
        self._post(self.KIND_NACK, sender,
                   {"ballot": ballot, "promised": self._promised})

    def _on_nack(self, message: Message) -> None:
        payload = message.payload
        if payload["ballot"] == self._ballot and self.is_sequencer and \
                (self._preparing or self._established):
            # Our ballot lost: claim one above the promise that beat it.
            self._promised = max(self._promised, payload["promised"])
            self._begin_prepare()

    def _on_decide(self, message: Message) -> None:
        payload = message.payload
        self._decided = max(self._decided,
                            (payload["ballot"], payload["up_to"]))
        self._try_deliver()

    def _report(self) -> Dict[str, Any]:
        """The report this member's answers carry to its leader: its name
        and its delivery horizon (none until a rejoin installed one)."""
        return {"member": self.member_name,
                "horizon": None if self._rejoining else self._delivered_seq}

    # ------------------------------------------------------------------ ordering → delivery
    def _try_deliver(self) -> None:
        """Queue, in order, each entry the decision covers that this member
        holds at the decision's ballot; hand up no no-op and no duplicate."""
        ballot, up_to = self._decided
        while self._delivered_seq < up_to:
            known = self._log.get(self._delivered_seq + 1)
            if known is None or known[0] != ballot:
                break
            self._delivered_seq += 1
            entry = known[1]
            if entry is None or entry.broadcast_id in self._delivered_ids:
                continue  # uniform integrity: never hand a duplicate upward
            self._delivered_ids.add(entry.broadcast_id)
            self._delivered_own(entry.broadcast_id)
            self._ready.put((self._delivered_seq, entry, False))

    def _delivered_own(self, broadcast_id: str) -> None:
        """``broadcast_id`` was delivered.  If it is one of ours, every
        older one of ours not delivered yet was lost on its way to the
        leader (the link is FIFO) or lost its sequence: submit it again."""
        if broadcast_id not in self._undelivered:
            return
        del self._undelivered[broadcast_id]
        number, target = _broadcast_number(broadcast_id), self.coordinator()
        for older, payload in list(self._undelivered.items()):
            if target is not None and _broadcast_number(older) < number:
                self._submit(older, payload, target)

    def _install_horizon(self, sequence: int) -> None:
        """Set the delivery horizon exactly (recovery from a log or reply);
        what was ordered at or below it is delivered or covered."""
        self._delivered_seq = sequence
        self._log = {seq: known for seq, known in self._log.items()
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
                                         entry.payload)
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
        coordinator = self.coordinator()
        if coordinator != self.member_name:
            # Not leading this view (excluded alive, or another member
            # leads): a later tenure collects again, and what waited for
            # this one is submitted again by its origin, below.
            self._established = self._preparing = False
            self._backlog = {}
        if self.member_name not in view.members or coordinator is None:
            return
        # Re-send messages of ours not delivered yet to the (possibly new)
        # leader.
        for broadcast_id, payload in list(self._undelivered.items()):
            self._submit(broadcast_id, payload, coordinator)
        if coordinator == self.member_name and not self._established and \
                not self._rejoining:
            self._begin_prepare()

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

        A member the policy makes leader collects once the horizon is
        installed: the collection starts after it.
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
        reply = first_reply.value if first_reply in outcome else None
        if reply is not None:
            if journal is not None:
                self._catch_up(reply["entries"])
            else:
                self._install_horizon(reply["sequence"])
        # The horizon is installed, or there is none to get.
        self._rejoining = False
        if self.is_sequencer:
            self._lead()
        if journal is not None:
            return replayed
        return None if reply is None else reply["checkpoint"]

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
