"""The fixed-sequencer total-order engine (the classical LAN scheme).

This is the seed's ordering protocol, extracted from the fused endpoint into
a :class:`~repro.gcs.total_order.TotalOrderEngine` subclass; it differs from
the seed's only in saying each ordering fact once (step 4 and the handoff
below), and its schedules are pinned by the golden-digest tests.  The scheme
is representative of what LAN group-communication toolkits do and produces
the ~1 ms broadcast cost the paper quotes for a 100 Mb/s LAN:

1. the sender ships ``DATA(m)`` to the current *sequencer* (the first member
   of the current view);
2. the sequencer assigns the next global sequence number and ships
   ``SEQ(seq, m)`` to every view member (including itself);
3. every member buffers the message and acknowledges with ``ACK(seq)``;
4. once a quorum (majority of the static group) has acknowledged ``seq``, the
   sequencer ships ``STABLE(up_to=seq)`` — once: the acknowledgements that
   arrive after the quorum-th do not repeat an announcement already posted.
   Members A-deliver messages in sequence order once they are covered by the
   stability horizon, which is cumulative, so a later announcement subsumes
   an earlier one.

One A-broadcast in a crash-free view of N members therefore costs
1 DATA + N SEQ + N ACK + at most N STABLE = at most 3N + 1 messages
(``tests/test_gcs_abcast.py`` pins the bill).

Step 4 is what makes the delivery *uniform*: no member delivers a message
that could still be lost by the crash of a minority.  What the primitive does
**not** give — and this is the crux of the paper — is any guarantee that the
application has *processed* a delivered message: delivery only means the
message reached the application boundary.  The end-to-end composition
adds that missing guarantee: a
:class:`~repro.gcs.message_log.GcsMessageLog` passed as the engine's
``journal``.

When the sequencer crashes, the next live member (view primary) takes over:
it collects the group's pending state (``VC_REQUEST``/``VC_STATE``) from
its own delivery horizon, as Multi-Paxos's ``PREPARE(from)`` does.  Each
reply carries what its member holds undelivered, and the assignments above
that horizon it announced stable itself, as sequencer.  The new
sequencer re-posts to the view each unstable assignment a reply taught it,
so all members can re-acknowledge it; a stable one it takes as its own
delivery (so an ex-sequencer re-admitted after a split or a crash gets
what the interim sequencer assigned).  It forgets which horizon it
announced so the next acknowledgement re-announces it to the new view.  A
member collects once per tenure, at the first view installation it
sequences after a start, a rejoin or an exclusion; a later view that only
drops or re-admits a follower runs no collection.  No sequence number is
assigned until a quorum of the view has answered, and a rejoin's installed
horizon does not lower the next one.

Catch-up is the per-member one of :mod:`repro.gcs.total_order`: a member
reports its delivery horizon on ``ACK`` and on ``VC_STATE``, and a fill
posts one ``SEQ`` per assignment of ``_assigned`` above the member's
horizon, then one ``STABLE`` with the horizon the sequencer knows is
stable.  So every view installation fills each member from its last
report (a joiner from the lowest one on record), and an ``ACK`` of a
``SEQ`` held above a missing one (lost, or below the mark a joiner's state
transfer installed) gets the assignments in between.  ACKs are not
cumulative, so a lost one is repaired on its own: an ``ACK`` also shows
each earlier unstable assignment the member never acknowledged (its
``SEQ`` or its ``ACK`` was lost), and the sequencer posts the member that
``SEQ`` again, as Multi-Paxos re-posts an ``ACCEPT``; the member
acknowledges even what it delivered.  A new sequencer
holds only the assignments its takeover collected, and no follower keeps
what it delivered, so a gap older than those stays open (ROADMAP ★24).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.layers import implements, uses
from ..network.message import Message
from .total_order import TotalOrderEngine, _PendingMessage


@implements("total_order")
@uses("reliable_broadcast")
class FixedSequencerEngine(TotalOrderEngine):
    """The group-communication component of one server (fixed sequencer)."""

    #: Message-kind namespace used on the shared per-node dispatcher.
    KIND_DATA = "ABCAST.DATA"
    KIND_SEQ = "ABCAST.SEQ"
    KIND_ACK = "ABCAST.ACK"
    KIND_STABLE = "ABCAST.STABLE"
    KIND_VC_REQUEST = "ABCAST.VC_REQUEST"
    KIND_VC_STATE = "ABCAST.VC_STATE"

    # ------------------------------------------------------------------ engine contract
    def coordinator(self) -> Optional[str]:
        """The sequencer: the first member of the current view."""
        return self.group.view().primary

    def _register_engine_handlers(self) -> None:
        handlers = {
            self.KIND_DATA: self._on_data,
            self.KIND_SEQ: self._on_seq,
            self.KIND_ACK: self._on_ack,
            self.KIND_STABLE: self._on_stable,
            self.KIND_VC_REQUEST: self._on_vc_request,
            self.KIND_VC_STATE: self._on_vc_state,
        }
        for kind, handler in handlers.items():
            self.dispatcher.register(kind, handler)

    def _reset_engine_state(self) -> None:
        self._stable_up_to = 0
        # Whether this member collected the group's pending state since it
        # last became sequencer.
        self._collected = False
        # Sequencer-only state.
        self._next_seq = 1
        self._assigned: Dict[int, _PendingMessage] = {}
        self._acks: Dict[int, Set[str]] = {}
        self._sequenced_ids: Set[str] = set()
        # Highest ``up_to`` already posted as STABLE in the current view; our
        # own ``_stable_up_to`` only follows once the STABLE comes back over
        # the LAN, and the ACKs arriving meanwhile must not re-announce it.
        self._stable_announced = 0
        # Takeover barrier: while waiting for ``VC_STATE`` replies the new
        # sequencer must not assign sequence numbers — its ``_next_seq`` may
        # trail assignments the old sequencer stabilised with a quorum that
        # did not include us.  DATA arriving meanwhile is buffered.
        self._takeover_waiting: Optional[Set[str]] = None
        self._takeover_replies: Set[str] = set()
        self._takeover_buffer: list = []

    def _submit(self, broadcast_id: str, payload: Any, target: str) -> None:
        self._post(self.KIND_DATA, target,
                   {"broadcast_id": broadcast_id, "payload": payload,
                    "origin": self.member_name})

    def _deliverable_up_to(self) -> float:
        return self._stable_up_to

    def _install_horizon(self, sequence: int) -> None:
        super()._install_horizon(sequence)
        self._stable_up_to = max(self._stable_up_to, sequence)

    def _decided_log(self) -> Dict[int, _PendingMessage]:
        return self._assigned

    def _posted_up_to(self) -> int:
        return self._next_seq - 1

    def _post_fill(self, member: str,
                   entries: List[Tuple[int, _PendingMessage]]) -> None:
        for sequence, _entry in entries:
            self._post_seq(sequence, member)
        self._post(self.KIND_STABLE, member,
                   {"up_to": max(self._stable_up_to, self._stable_announced)})

    def _post_seq(self, sequence: int, member: Optional[str] = None) -> None:
        """Post SEQ(sequence) of ``_assigned`` to the view, or to
        ``member``."""
        entry = self._assigned[sequence]
        seq = {"sequence": sequence, "broadcast_id": entry.broadcast_id,
               "payload": entry.payload, "origin": entry.sender}
        if member is None:
            self._post_view(self.KIND_SEQ, seq)
        else:
            self._post(self.KIND_SEQ, member, seq)

    def _on_coordinator_change(self, view: Any, coordinator: str) -> None:
        if coordinator != self.member_name:
            # Someone else sequences now; anything buffered during an
            # abandoned takeover of ours belongs to them.
            self._collected = False
            self._takeover_waiting = None
            buffered, self._takeover_buffer = self._takeover_buffer, []
            for message in buffered:
                self._post(self.KIND_DATA, coordinator, message.payload)
            return
        if self._collected and self._takeover_waiting is None:
            return      # we stay sequencer: the view's fill caught members up
        # We just became the sequencer (or the view changed again before our
        # collection completed): collect the group's pending state so
        # assignments known to others survive the handoff.  Until a quorum
        # has answered, DATA is buffered (see ``_on_data``) — sequencing
        # before the collection completes could re-use sequence numbers the
        # old sequencer already stabilised.
        self._collected = True
        self._takeover_waiting = set(view.members)
        self._takeover_replies = set()
        self._stable_announced = 0
        self._post_view(self.KIND_VC_REQUEST, {"view_id": view.view_id,
                                               "from": self._delivered_seq})

    def _on_excluded(self, view: Any) -> None:
        # Excluded while alive (partitioned away, not crashed): our
        # sequencer tenancy — if we had one — is void.  The surviving
        # majority re-collects pending state and re-assigns our sequence
        # numbers to other messages, so re-asserting ``_assigned`` on a
        # later rejoin would deliver a *different* message under an
        # already-delivered sequence: a total-order (split-brain) violation.
        # Our own not-yet-delivered broadcasts go back to ``_unsequenced``
        # so the rejoin view change re-submits them for fresh sequencing.
        for _seq, entry in sorted(self._pending.items()) + \
                sorted(self._assigned.items()):
            if entry.sender == self.member_name and \
                    entry.broadcast_id not in self._delivered_ids:
                self._unsequenced.setdefault(entry.broadcast_id,
                                             entry.payload)
        self._pending.clear()
        self._assigned = {}
        self._acks = {}
        self._sequenced_ids = set()
        self._next_seq = self._delivered_seq + 1
        self._stable_announced = 0
        self._collected = False
        self._takeover_waiting = None
        self._takeover_replies = set()
        self._takeover_buffer = []

    # ------------------------------------------------------------------ handlers
    def _on_data(self, message: Message) -> None:
        if not self.is_sequencer:
            # A stale sender; forward to the real sequencer.
            sequencer = self.coordinator()
            if sequencer and sequencer != self.member_name:
                self._post(self.KIND_DATA, sequencer, message.payload)
            return
        if self._takeover_waiting is not None:
            self._takeover_buffer.append(message)
            return
        payload = message.payload
        broadcast_id = payload["broadcast_id"]
        if broadcast_id in self._sequenced_ids:
            return  # duplicate resend after a view change
        sequence = self._next_seq
        self._next_seq += 1
        entry = _PendingMessage(broadcast_id=broadcast_id,
                                payload=payload["payload"],
                                sender=payload["origin"])
        self._assigned[sequence] = entry
        self._sequenced_ids.add(broadcast_id)
        self._post_seq(sequence)

    def _on_seq(self, message: Message) -> None:
        payload = message.payload
        sequence = payload["sequence"]
        broadcast_id = payload["broadcast_id"]
        if sequence > self._delivered_seq:
            # A re-propagated assignment we already delivered would never
            # leave ``_pending`` (``_try_deliver`` only pops the next one).
            self._pending[sequence] = _PendingMessage(
                broadcast_id=broadcast_id, payload=payload["payload"],
                sender=payload["origin"])
        self._ordered(broadcast_id)
        # Acknowledge even what we already delivered: the sequencer of a new
        # view may still be counting towards its quorum.
        sequencer = message.sender
        self._post(self.KIND_ACK, sequencer,
                   {"sequence": sequence, **self._report(sequence)})
        self._try_deliver()

    def _on_ack(self, message: Message) -> None:
        if not self.is_sequencer:
            return
        payload = message.payload
        member, sequence = payload["member"], payload["sequence"]
        self._note_report(payload, sequence)
        # The member answers in order: an earlier unstable assignment it
        # never acknowledged lost its SEQ or its ACK.  Post it again; the
        # member acknowledges even what it delivered.
        announced = max(self._stable_up_to, self._stable_announced)
        for earlier in range(announced + 1, sequence):
            if earlier in self._assigned and \
                    member not in self._acks.get(earlier, ()):
                self._post_seq(earlier, member)
        self._acks.setdefault(sequence, set()).add(member)
        self._advance_stability()

    def _advance_stability(self) -> None:
        quorum = self.group.quorum_size()
        announced = max(self._stable_up_to, self._stable_announced)
        new_stable = announced
        while True:
            candidate = new_stable + 1
            if candidate not in self._assigned:
                break
            if len(self._acks.get(candidate, ())) < quorum:
                break
            new_stable = candidate
        if new_stable > announced:
            self._stable_announced = new_stable
            self._post_view(self.KIND_STABLE, {"up_to": new_stable})

    def _on_stable(self, message: Message) -> None:
        up_to = message.payload["up_to"]
        if up_to > self._stable_up_to:
            self._stable_up_to = up_to
        self._try_deliver()

    # ------------------------------------------------------------------ sequencer handoff
    def _on_vc_request(self, message: Message) -> None:
        # What this member holds undelivered, and the assignments above the
        # collector's horizon it announced stable itself as sequencer (one
        # its stable horizon covers but it never announced may have been
        # given to another message since).
        held = {seq: entry for seq, entry in self._assigned.items()
                if message.payload["from"] < seq <= self._stable_announced}
        held.update(self._pending)
        pending = {seq: (entry.broadcast_id, entry.payload, entry.sender)
                   for seq, entry in held.items()}
        self._post(self.KIND_VC_STATE, message.sender,
                   {"pending": pending, "delivered_seq": self._delivered_seq,
                    "stable_up_to": self._stable_up_to, **self._report()})

    def _on_vc_state(self, message: Message) -> None:
        if not self.is_sequencer:
            return
        payload = message.payload
        self._note_report(payload)
        learned = []
        for sequence, (broadcast_id, data, origin) in payload["pending"].items():
            if sequence not in self._assigned:
                entry = self._assigned[sequence] = _PendingMessage(
                    broadcast_id=broadcast_id, payload=data, sender=origin)
                self._sequenced_ids.add(broadcast_id)
                if sequence > payload["stable_up_to"]:
                    learned.append(sequence)
                elif sequence > self._delivered_seq:
                    # Stable already: taken as a SEQ is, and not re-posted.
                    self._pending[sequence] = entry
        self._try_deliver()
        highest_known = max(payload["delivered_seq"], payload["stable_up_to"],
                            self._stable_up_to, self._delivered_seq,
                            *self._assigned)
        self._next_seq = max(self._next_seq, highest_known + 1)
        self._stable_up_to = max(self._stable_up_to,
                                 min(payload["stable_up_to"], highest_known))
        # Re-propagate what this reply taught us so that all members can
        # (re-)acknowledge it; receivers ignore what they already delivered.
        for sequence in sorted(learned):
            self._post_seq(sequence)
        if self._takeover_waiting is not None:
            self._takeover_replies.add(payload["member"])
            needed = min(self.group.quorum_size(),
                         len(self._takeover_waiting))
            if len(self._takeover_replies & self._takeover_waiting) >= needed:
                # Enough of the view answered: ``_next_seq`` now covers every
                # assignment a quorum could have stabilised — safe to sequence.
                self._takeover_waiting = None
                buffered, self._takeover_buffer = self._takeover_buffer, []
                for message in buffered:
                    self._on_data(message)
