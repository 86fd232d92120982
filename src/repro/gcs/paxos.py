"""A Multi-Paxos total-order engine (per-slot prepare/accept/learn).

The alternative ordering protocol of the engine table: instead of a
fixed sequencer with explicit stability, total order is agreed slot by slot
with Paxos over the same reliable-broadcast layer.

* The **leader** is the lowest-ranked member of the static group the failure
  detector does not currently suspect (Chandra & Toueg's Ω read off the
  perfect detector).
* Senders ship ``PROPOSE(m)`` to the leader; the leader assigns the next
  free slot and runs the accept phase: ``ACCEPT(ballot, slot, m)`` to every
  view member, who accepts (if the ballot is not stale) and answers
  ``ACCEPTED``; once a majority of the *static* group accepted, the leader
  posts ``LEARN(slot, m)`` and every member A-delivers in slot order.
  Learning after a majority-accept is what makes delivery *uniform*: the
  value is durable at a majority before anyone delivers it.
* A **leader change** (the failure detector suspects the old leader) runs
  phase 1 from the new leader's delivery horizon: ``PREPARE(ballot, from)``
  names the first slot the leader has not delivered, each ``PROMISE``
  carries what its acceptor accepted from that slot on, and the leader
  re-proposes the carried values it does not already know are chosen — the
  classical Paxos invariant that preserves majority-accepted slots across
  crashes, paid for what is undecided rather than for the whole history.
  Proposals arriving while phase 1 runs are backlogged and drained once the
  ballot is established.
* **Catch-up is per member** (the learner gap-fill of Multi-Paxos, shared
  with the fixed sequencer in :mod:`repro.gcs.total_order`): every member
  reports its delivery horizon to the leader, on ``PROMISE`` and
  piggybacked on ``ACCEPTED``, and a fill posts one ``LEARN`` per decided
  slot of ``_chosen``.  A member's ``PROMISE`` gets the decided slots
  above its horizon, point to point, and an ``ACCEPTED`` that shows a
  gap (a slot learned above one not learned, or accepted above one
  neither accepted nor learned) fills as the shared catch-up describes;
  a view installation at the leader fills no member.  An
  ``ACCEPTED`` also shows, to the leader that counts the answers, each
  earlier undecided slot of its ballot the member never answered: the
  leader posts that slot's ``ACCEPT`` to the member again.  A ``LEARN``
  of a slot above one the member accepted but never learned shows that
  the ``LEARN`` in between was lost; the member's ``ACCEPTED`` of the
  lacking slot went out before the gap showed, so it posts the sender a
  fresh ``ACCEPTED`` of the learned slot with its report, and the leader
  fills it (that slot is chosen: the vote changes nothing).  A proposal
  whose slot was chosen for another value is proposed afresh when its
  sender submits it again.  A joiner Ω hands the lead back to fills its
  gap with its own phase 1.
  *Decided* includes the slots whose ``LEARN`` is still queued in the
  leader's outbox, addressed to the view it was posted to.  A rejoining
  member leads no phase 1 until its rejoin installed a horizon: phase 1 is
  what sets its next slot.

Compared to the fixed-sequencer engine the failure-free message cost is one
round higher (accept + learn instead of seq + stable piggybacked on acks),
but leader takeover needs no group-wide state collection: a majority quorum
is enough, so the paper's crash-the-sequencer cells re-elect faster when
views are slow to form.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.layers import implements, uses
from ..network.dispatch import Dispatcher
from ..network.message import Message
from ..network.node import Node
from ..sim.engine import Simulator
from .failure_detector import FailureDetector
from .message_log import GcsMessageLog
from .reliable_broadcast import ReliableBroadcastLayer
from .total_order import MembershipPort, TotalOrderEngine, _PendingMessage


@implements("total_order")
@uses("reliable_broadcast")
@uses("failure_detector")
class MultiPaxosEngine(TotalOrderEngine):
    """One member's endpoint of the Multi-Paxos ordering protocol."""

    KIND_PROPOSE = "PAXOS.PROPOSE"
    KIND_PREPARE = "PAXOS.PREPARE"
    KIND_PROMISE = "PAXOS.PROMISE"
    KIND_ACCEPT = "PAXOS.ACCEPT"
    KIND_ACCEPTED = "PAXOS.ACCEPTED"
    KIND_LEARN = "PAXOS.LEARN"
    KIND_NACK = "PAXOS.NACK"

    def __init__(self, sim: Simulator, node: Node, dispatcher: Dispatcher,
                 broadcast_layer: ReliableBroadcastLayer, group: MembershipPort,
                 failure_detector: FailureDetector,
                 member_name: Optional[str] = None,
                 journal: Optional[GcsMessageLog] = None) -> None:
        super().__init__(sim, node, dispatcher, broadcast_layer, group,
                         member_name=member_name, journal=journal,
                         failure_detector=failure_detector)
        self._rank = {name: index for index, name in enumerate(group.members)}
        #: Statistics.
        self.prepare_count = 0

    # ------------------------------------------------------------------ engine contract
    def coordinator(self) -> Optional[str]:
        """The lowest-ranked static member the failure detector trusts."""
        for member in self.group.members:
            if not self.failure_detector.is_suspected(member):
                return member
        return None

    def _register_engine_handlers(self) -> None:
        handlers = {
            self.KIND_PROPOSE: self._on_propose,
            self.KIND_PREPARE: self._on_prepare,
            self.KIND_PROMISE: self._on_promise,
            self.KIND_ACCEPT: self._on_accept,
            self.KIND_ACCEPTED: self._on_accepted,
            self.KIND_LEARN: self._on_learn,
            self.KIND_NACK: self._on_nack,
        }
        for kind, handler in handlers.items():
            self.dispatcher.register(kind, handler)

    def _reset_engine_state(self) -> None:
        # Acceptor state.
        self._promised = -1
        self._accepted: Dict[int, Tuple[int, Tuple[str, Any, str]]] = {}
        # Learner state: every slot this member knows is chosen — learned,
        # or, as leader, decided with its LEARN posted.
        self._chosen: Dict[int, Tuple[str, Any, str]] = {}
        self._learned_ids: Set[str] = set()
        # Leader state.
        self._ballot = -1
        self._established = False
        self._preparing = False
        self._prepare_from = 1
        self._next_slot = 1
        self._slot_of: Dict[str, int] = {}
        self._backlog: Dict[str, Tuple[Any, str]] = {}
        self._prepare_votes: Dict[str, Dict[int, Tuple[int, Tuple[str, Any, str]]]] = {}
        self._accept_votes: Dict[Tuple[int, int], Set[str]] = {}
        self._max_ballot_seen = -1

    def _submit(self, broadcast_id: str, payload: Any, target: str) -> None:
        self._post(self.KIND_PROPOSE, target,
                   {"broadcast_id": broadcast_id, "payload": payload,
                    "origin": self.member_name})

    def _deliverable_up_to(self) -> float:
        # A slot is safe as soon as it is learned; contiguity alone gates
        # delivery (``_pending`` only ever holds learned slots).
        return float("inf")

    def _decided_log(self) -> Dict[int, Tuple[str, Any, str]]:
        return self._chosen

    def _posted_up_to(self) -> int:
        return self._next_slot - 1

    def _lacks_below(self, entry: int) -> bool:
        # A slot accepted is held too; but a slot learned above it shows
        # that its LEARN was lost.
        lacking = self._delivered_seq + 1
        return super()._lacks_below(entry) and (
            lacking not in self._accepted or bool(self._pending))

    def _post_fill(self, member: str,
                   entries: List[Tuple[int, Tuple[str, Any, str]]]) -> None:
        for slot, (broadcast_id, payload, origin) in entries:
            self._post(self.KIND_LEARN, member,
                       {"slot": slot, "broadcast_id": broadcast_id,
                        "payload": payload, "origin": origin})

    def _on_coordinator_change(self, view: Any, coordinator: str) -> None:
        if coordinator == self.member_name:
            self._lead()

    # ------------------------------------------------------------------ rejoin
    def recover(self, rejoin_timeout: float = 10.0):
        # A rejoining member leads no phase 1 until its rejoin installed a
        # horizon to lead from.
        outcome = yield from super().recover(rejoin_timeout)
        if self._backlog and self.is_sequencer:
            self._lead()                     # the phase 1 it deferred
        return outcome

    # ------------------------------------------------------------------ ballots
    def _next_ballot(self) -> int:
        size = len(self.group.members)
        rank = self._rank[self.member_name]
        return ((self._max_ballot_seen // size) + 1) * size + rank

    def _lead(self) -> None:
        """Start phase 1 unless it runs, or this member has no horizon yet."""
        if not self._established and not self._preparing \
                and not self._rejoining:
            self._begin_prepare()

    def _begin_prepare(self) -> None:
        """Phase 1: claim leadership with a fresh, higher ballot, from the
        first slot this member has not delivered."""
        self._ballot = self._next_ballot()
        self._max_ballot_seen = max(self._max_ballot_seen, self._ballot)
        self._preparing = True
        self._established = False
        self._prepare_votes = {}
        self._prepare_from = self._delivered_seq + 1
        self.prepare_count += 1
        self._post_view(self.KIND_PREPARE, {"ballot": self._ballot,
                                            "from": self._prepare_from})

    # ------------------------------------------------------------------ proposer side
    def _on_propose(self, message: Message) -> None:
        if not self.is_sequencer:
            # A stale sender; forward to the real leader.
            leader = self.coordinator()
            if leader and leader != self.member_name:
                self._post(self.KIND_PROPOSE, leader, message.payload)
            return
        payload = message.payload
        broadcast_id = payload["broadcast_id"]
        slot = self._slot_of.get(broadcast_id)
        if slot in self._chosen and self._chosen[slot][0] != broadcast_id:
            del self._slot_of[broadcast_id]     # its slot went to another
        if broadcast_id in self._slot_of or broadcast_id in self._learned_ids \
                or broadcast_id in self._delivered_ids:
            return  # duplicate resend after a leader change
        if not self._established:
            self._backlog[broadcast_id] = (payload["payload"],
                                           payload["origin"])
            self._lead()
            return
        self._propose(broadcast_id, payload["payload"], payload["origin"])

    def _propose(self, broadcast_id: str, payload: Any, origin: str) -> None:
        slot = self._next_slot
        self._next_slot += 1
        self._slot_of[broadcast_id] = slot
        self._post_accept(slot, (broadcast_id, payload, origin))

    def _post_accept(self, slot: int, value: Tuple[str, Any, str],
                     member: Optional[str] = None) -> None:
        """Post ACCEPT(ballot, slot, value) to the view, or to ``member``."""
        broadcast_id, payload, origin = value
        accept = {"ballot": self._ballot, "slot": slot,
                  "broadcast_id": broadcast_id, "payload": payload,
                  "origin": origin}
        if member is None:
            self._post_view(self.KIND_ACCEPT, accept)
        else:
            self._post(self.KIND_ACCEPT, member, accept)

    # ------------------------------------------------------------------ acceptor side
    def _on_prepare(self, message: Message) -> None:
        ballot = message.payload["ballot"]
        self._max_ballot_seen = max(self._max_ballot_seen, ballot)
        if ballot <= self._promised:
            # Tell the stale proposer what it is up against (it may have
            # crashed and lost its ballot high-water mark) so it can retry
            # with a higher ballot.
            self._post(self.KIND_NACK, message.sender,
                       {"ballot": ballot, "promised": self._promised})
            return
        self._promised = ballot
        start = message.payload["from"]
        accepted = {slot: value for slot, value in self._accepted.items()
                    if slot >= start}
        self._post(self.KIND_PROMISE, message.sender,
                   {"ballot": ballot, "accepted": accepted, **self._report()})

    def _on_accept(self, message: Message) -> None:
        payload = message.payload
        ballot = payload["ballot"]
        self._max_ballot_seen = max(self._max_ballot_seen, ballot)
        if ballot < self._promised:
            self._post(self.KIND_NACK, message.sender,
                       {"ballot": ballot, "promised": self._promised})
            return  # stale leader
        self._promised = ballot
        slot = payload["slot"]
        value = (payload["broadcast_id"], payload["payload"],
                 payload["origin"])
        self._accepted[slot] = (ballot, value)
        self._post(self.KIND_ACCEPTED, message.sender,
                   {"ballot": ballot, "slot": slot, **self._report(slot)})

    # ------------------------------------------------------------------ leader side
    def _on_promise(self, message: Message) -> None:
        payload = message.payload
        if payload["ballot"] != self._ballot or \
                not (self._preparing or self._established):
            return
        member, horizon = payload["member"], payload["horizon"]
        if horizon is not None and member != self.member_name:
            self._fill(member, horizon)
        if not self._preparing:
            return  # a late promise: its gap is filled, the ballot stands
        self._prepare_votes[member] = payload["accepted"]
        if len(self._prepare_votes) < self.group.quorum_size():
            return
        self._preparing = False
        self._established = True
        # Classical Paxos invariant: adopt, per slot, the value accepted at
        # the highest ballot any promise carried (plus our own acceptances).
        start = self._prepare_from
        merged: Dict[int, Tuple[int, Tuple[str, Any, str]]] = {
            slot: value for slot, value in self._accepted.items()
            if slot >= start}
        for member in sorted(self._prepare_votes):
            accepted = self._prepare_votes[member]
            for slot, (ballot, value) in accepted.items():
                known = merged.get(slot)
                if known is None or ballot > known[0]:
                    merged[slot] = (ballot, value)
        self._next_slot = max(self._next_slot, start,
                              max(self._chosen, default=0) + 1)
        for slot in sorted(merged):
            _, value = merged[slot]
            self._slot_of[value[0]] = slot
            self._next_slot = max(self._next_slot, slot + 1)
            if slot in self._chosen:
                continue  # decided: its LEARN went out, or a fill carries it
            self._post_accept(slot, value)
        for broadcast_id, (data, origin) in list(self._backlog.items()):
            if broadcast_id in self._slot_of or \
                    broadcast_id in self._learned_ids or \
                    broadcast_id in self._delivered_ids:
                continue
            self._propose(broadcast_id, data, origin)
        self._backlog = {}

    def _on_accepted(self, message: Message) -> None:
        payload = message.payload
        ballot = payload["ballot"]
        if ballot != self._ballot or not self._established:
            return
        member, slot = payload["member"], payload["slot"]
        self._note_report(payload, slot)
        # The member answers in order: an earlier undecided slot of this
        # ballot it never answered lost its ACCEPT (or its answer).
        for earlier in range(self._delivered_seq + 1, slot):
            ours = self._accepted.get(earlier, (None, None))
            if ours[0] == ballot and earlier not in self._chosen and member \
                    not in self._accept_votes.get((ballot, earlier), ()):
                self._post_accept(earlier, ours[1], member)
        votes = self._accept_votes.setdefault((ballot, slot), set())
        votes.add(member)
        if len(votes) < self.group.quorum_size() or slot in self._chosen:
            return
        known = self._accepted.get(slot)
        if known is None:
            return  # we have not accepted our own proposal yet; wait for it
        # Decided: chosen from now on, though its LEARN is still queued.
        self._chosen[slot] = known[1]
        broadcast_id, data, origin = known[1]
        self._post_view(self.KIND_LEARN,
                        {"slot": slot, "broadcast_id": broadcast_id,
                         "payload": data, "origin": origin})

    def _on_nack(self, message: Message) -> None:
        payload = message.payload
        self._max_ballot_seen = max(self._max_ballot_seen, payload["promised"])
        if not self.is_sequencer:
            return  # someone else leads now; stop fighting
        if payload["ballot"] != self._ballot:
            return  # stale rejection of an abandoned ballot
        if self._preparing or self._established:
            # Our current ballot lost (typically: we crashed, recovered with
            # an empty high-water mark and under-bid); claim a higher one.
            self._begin_prepare()

    # ------------------------------------------------------------------ learner side
    def _on_learn(self, message: Message) -> None:
        payload = message.payload
        slot = payload["slot"]
        broadcast_id = payload["broadcast_id"]
        value = (broadcast_id, payload["payload"], payload["origin"])
        self._chosen[slot] = value
        self._learned_ids.add(broadcast_id)
        self._ordered(broadcast_id)
        if slot <= self._delivered_seq or slot in self._pending:
            return  # already delivered (or queued) here
        self._pending[slot] = _PendingMessage(
            broadcast_id=broadcast_id, payload=payload["payload"],
            sender=payload["origin"])
        self._try_deliver()
        # A LEARN below this slot was lost after this member's last
        # ACCEPTED went out, so no answer of its own would report the gap:
        # report it now (the slot is chosen, the vote is moot).
        if self._delivered_seq + 1 in self._accepted and \
                self._lacks_below(slot):
            self._post(self.KIND_ACCEPTED, message.sender,
                       {"ballot": self._promised, "slot": slot,
                        **self._report(slot)})
