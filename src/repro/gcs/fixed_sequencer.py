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
(:mod:`repro.gcs.end_to_end`) adds that missing guarantee.

When the sequencer crashes, the next live member (view primary) takes over:
it collects the group's pending assignments (``VC_REQUEST``/``VC_STATE``)
and re-propagates every known assignment so all members can re-acknowledge —
each assignment once per takeover, when the first reply that makes it known
arrives, not once per reply.  *Every* view installation runs this collection
at the member it leaves sequencer, including one that only drops or re-admits
a follower: the re-propagation is how a rejoined member fills its delivery
gap, and the sequencer forgets which horizon it announced so the next
acknowledgement re-announces it to the new view.  ``_assigned`` is never
pruned, so the re-propagation is the whole history, once per member;
re-sending only what is not yet stable needs a per-member catch-up first
(a joiner installs the ``delivered_seq`` of whichever peer answers first,
which may trail a horizon the sequencer already announced — ROADMAP item 2).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from ..core.layers import implements, uses
from ..network.message import Message
from .total_order import TotalOrderEngine, _PendingMessage


@implements("total_order")
@uses("reliable_broadcast")
class FixedSequencerEngine(TotalOrderEngine):
    """The group-communication component of one server (fixed sequencer)."""

    engine_name = "fixed-sequencer"

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
        self._takeover_reposted: Set[int] = set()
        self._takeover_buffer: list = []

    def _submit(self, broadcast_id: str, payload: Any, target: str) -> None:
        self._post(self.KIND_DATA, target,
                   {"broadcast_id": broadcast_id, "payload": payload,
                    "origin": self.member_name})

    def _deliverable_up_to(self) -> float:
        return self._stable_up_to

    def _engine_install_horizon(self, sequence: int) -> None:
        self._stable_up_to = sequence
        self._next_seq = sequence + 1

    def _engine_merge_horizon(self, sequence: int) -> None:
        self._stable_up_to = max(self._stable_up_to, sequence)
        self._next_seq = self._delivered_seq + 1

    def _on_coordinator_change(self, view: Any, coordinator: str) -> None:
        if coordinator != self.member_name:
            # Someone else sequences now; anything buffered during an
            # abandoned takeover of ours belongs to them.
            self._takeover_waiting = None
            buffered, self._takeover_buffer = self._takeover_buffer, []
            for message in buffered:
                self._post(self.KIND_DATA, coordinator, message.payload)
            return
        # We just became the sequencer: collect the group's pending state so
        # assignments known to others survive the handoff.  Until a quorum
        # has answered, DATA is buffered (see ``_on_data``) — sequencing
        # before the collection completes could re-use sequence numbers the
        # old sequencer already stabilised.  A view installation that leaves
        # us sequencer lands here too (module docstring): the new view gets
        # every assignment and, with the next ACK, the stability horizon.
        self._takeover_waiting = set(view.members)
        self._takeover_replies = set()
        self._takeover_reposted = set()
        self._stable_announced = 0
        self._post_view(self.KIND_VC_REQUEST, {"view_id": view.view_id})

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
        self._takeover_waiting = None
        self._takeover_replies = set()
        self._takeover_reposted = set()
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
        self._post_view(self.KIND_SEQ,
                        {"sequence": sequence, "broadcast_id": broadcast_id,
                         "payload": entry.payload, "origin": entry.sender})

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
        self._unsequenced.pop(broadcast_id, None)
        # Acknowledge even what we already delivered: the sequencer of a new
        # view may still be counting towards its quorum.
        sequencer = message.sender
        self._post(self.KIND_ACK, sequencer,
                   {"sequence": sequence, "member": self.member_name})
        self._try_deliver()

    def _on_ack(self, message: Message) -> None:
        if not self.is_sequencer:
            return
        payload = message.payload
        sequence = payload["sequence"]
        self._acks.setdefault(sequence, set()).add(payload["member"])
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
        pending = {seq: (entry.broadcast_id, entry.payload, entry.sender)
                   for seq, entry in self._pending.items()}
        self._post(self.KIND_VC_STATE, message.sender,
                   {"pending": pending, "delivered_seq": self._delivered_seq,
                    "stable_up_to": self._stable_up_to,
                    "member": self.member_name})

    def _on_vc_state(self, message: Message) -> None:
        if not self.is_sequencer:
            return
        payload = message.payload
        for sequence, (broadcast_id, data, origin) in payload["pending"].items():
            if sequence not in self._assigned:
                self._assigned[sequence] = _PendingMessage(
                    broadcast_id=broadcast_id, payload=data, sender=origin)
                self._sequenced_ids.add(broadcast_id)
        highest_known = max(payload["delivered_seq"], payload["stable_up_to"],
                            self._stable_up_to, self._delivered_seq,
                            *self._assigned)
        self._next_seq = max(self._next_seq, highest_known + 1)
        self._stable_up_to = max(self._stable_up_to,
                                 min(payload["stable_up_to"], highest_known))
        # Re-propagate every assignment we know about so that all members can
        # (re-)acknowledge; receivers ignore duplicates they already delivered.
        # Once per takeover: a later reply only adds what it alone knew.
        fresh = sorted(self._assigned.keys() - self._takeover_reposted)
        self._takeover_reposted.update(fresh)
        for sequence in fresh:
            entry = self._assigned[sequence]
            self._post_view(self.KIND_SEQ,
                            {"sequence": sequence,
                             "broadcast_id": entry.broadcast_id,
                             "payload": entry.payload, "origin": entry.sender})
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
