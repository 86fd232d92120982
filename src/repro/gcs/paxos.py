"""A Multi-Paxos total-order engine (per-slot prepare/accept/learn).

The alternative ordering protocol behind the engine registry: instead of a
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
  phase 1: the new leader picks a higher ballot, collects ``PROMISE``s from
  a majority and re-proposes every value a promise carried — the classical
  Paxos invariant that preserves majority-accepted slots across crashes.
  Proposals arriving while phase 1 runs are backlogged and drained once the
  ballot is established.
* On every view installation the leader re-posts ``LEARN`` for every chosen
  slot it knows, which is how a rejoined member fills delivery gaps (the
  fixed-sequencer engine does the same with its ``VC_STATE`` re-propagation).

Compared to the fixed-sequencer engine the failure-free message cost is one
round higher (accept + learn instead of seq + stable piggybacked on acks),
but leader takeover needs no group-wide state collection: a majority quorum
is enough, so the paper's crash-the-sequencer cells re-elect faster when
views are slow to form.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from ..core.layers import implements, uses
from ..network.dispatch import Dispatcher
from ..network.message import Message
from ..network.node import Node
from ..sim.engine import Simulator
from .failure_detector import FailureDetector
from .message_log import GcsMessageLog
from .reliable_broadcast import ReliableBroadcastLayer
from .spec import BroadcastTrace
from .total_order import MembershipPort, TotalOrderEngine, _PendingMessage


@implements("total_order")
@uses("reliable_broadcast")
@uses("failure_detector")
class MultiPaxosEngine(TotalOrderEngine):
    """One member's endpoint of the Multi-Paxos ordering protocol."""

    engine_name = "multi-paxos"

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
                 delivery_cpu_time: float = 0.07,
                 trace: Optional[BroadcastTrace] = None,
                 journal: Optional[GcsMessageLog] = None) -> None:
        self._fd = failure_detector
        super().__init__(sim, node, dispatcher, broadcast_layer, group,
                         member_name=member_name,
                         delivery_cpu_time=delivery_cpu_time, trace=trace,
                         journal=journal)
        self._rank = {name: index for index, name in enumerate(group.members)}
        #: Statistics.
        self.prepare_count = 0

    # ------------------------------------------------------------------ engine contract
    def coordinator(self) -> Optional[str]:
        """The lowest-ranked static member the failure detector trusts."""
        for member in self.group.members:
            if not self._fd.is_suspected(member):
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
        # Learner state: every chosen slot this member knows about.
        self._chosen: Dict[int, Tuple[str, Any, str]] = {}
        self._learned_ids: Set[str] = set()
        # Leader state.
        self._ballot = -1
        self._established = False
        self._preparing = False
        self._next_slot = 1
        self._slot_of: Dict[str, int] = {}
        self._backlog: Dict[str, Tuple[Any, str]] = {}
        self._prepare_votes: Dict[str, Dict[int, Tuple[int, Tuple[str, Any, str]]]] = {}
        self._accept_votes: Dict[Tuple[int, int], Set[str]] = {}
        self._learn_sent: Set[int] = set()
        self._max_ballot_seen = -1

    def _submit(self, broadcast_id: str, payload: Any, target: str) -> None:
        self._post(self.KIND_PROPOSE, target,
                   {"broadcast_id": broadcast_id, "payload": payload,
                    "origin": self.member_name})

    def _deliverable_up_to(self) -> float:
        # A slot is safe as soon as it is learned; contiguity alone gates
        # delivery (``_pending`` only ever holds learned slots).
        return float("inf")

    def _engine_install_horizon(self, sequence: int) -> None:
        self._next_slot = sequence + 1

    def _engine_merge_horizon(self, sequence: int) -> None:
        self._next_slot = max(self._next_slot, self._delivered_seq + 1)

    def _on_coordinator_change(self, view: Any, coordinator: str) -> None:
        if coordinator != self.member_name:
            return
        # Fill delivery gaps of (re)joined members: re-post every chosen
        # slot; receivers ignore what they already delivered.
        for slot in sorted(self._chosen):
            broadcast_id, payload, origin = self._chosen[slot]
            self._post_view(self.KIND_LEARN,
                            {"slot": slot, "broadcast_id": broadcast_id,
                             "payload": payload, "origin": origin})
        if not self._established and not self._preparing:
            self._begin_prepare()

    # ------------------------------------------------------------------ ballots
    def _next_ballot(self) -> int:
        size = len(self.group.members)
        rank = self._rank[self.member_name]
        return ((self._max_ballot_seen // size) + 1) * size + rank

    def _begin_prepare(self) -> None:
        """Phase 1: claim leadership with a fresh, higher ballot."""
        self._ballot = self._next_ballot()
        self._max_ballot_seen = max(self._max_ballot_seen, self._ballot)
        self._preparing = True
        self._established = False
        self._prepare_votes = {}
        self.prepare_count += 1
        self._post_view(self.KIND_PREPARE, {"ballot": self._ballot})

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
        if broadcast_id in self._slot_of or broadcast_id in self._learned_ids \
                or broadcast_id in self._delivered_ids:
            return  # duplicate resend after a leader change
        if not self._established:
            self._backlog[broadcast_id] = (payload["payload"],
                                           payload["origin"])
            if not self._preparing:
                self._begin_prepare()
            return
        self._propose(broadcast_id, payload["payload"], payload["origin"])

    def _propose(self, broadcast_id: str, payload: Any, origin: str) -> None:
        slot = self._next_slot
        self._next_slot += 1
        self._slot_of[broadcast_id] = slot
        self._post_view(self.KIND_ACCEPT,
                        {"ballot": self._ballot, "slot": slot,
                         "broadcast_id": broadcast_id, "payload": payload,
                         "origin": origin})

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
        accepted = {slot: value for slot, value in self._accepted.items()}
        self._post(self.KIND_PROMISE, message.sender,
                   {"ballot": ballot, "accepted": accepted,
                    "member": self.member_name})

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
                   {"ballot": ballot, "slot": slot,
                    "member": self.member_name})

    # ------------------------------------------------------------------ leader side
    def _on_promise(self, message: Message) -> None:
        payload = message.payload
        if not self._preparing or payload["ballot"] != self._ballot:
            return
        self._prepare_votes[payload["member"]] = payload["accepted"]
        if len(self._prepare_votes) < self.group.quorum_size():
            return
        self._preparing = False
        self._established = True
        # Classical Paxos invariant: adopt, per slot, the value accepted at
        # the highest ballot any promise carried (plus our own acceptances).
        merged: Dict[int, Tuple[int, Tuple[str, Any, str]]] = dict(self._accepted)
        for member in sorted(self._prepare_votes):
            accepted = self._prepare_votes[member]
            for slot, (ballot, value) in accepted.items():
                known = merged.get(slot)
                if known is None or ballot > known[0]:
                    merged[slot] = (ballot, value)
        for slot in sorted(merged):
            _, value = merged[slot]
            broadcast_id, data, origin = value
            self._slot_of[broadcast_id] = slot
            self._next_slot = max(self._next_slot, slot + 1)
            self._post_view(self.KIND_ACCEPT,
                            {"ballot": self._ballot, "slot": slot,
                             "broadcast_id": broadcast_id, "payload": data,
                             "origin": origin})
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
        slot = payload["slot"]
        votes = self._accept_votes.setdefault((ballot, slot), set())
        votes.add(payload["member"])
        if len(votes) < self.group.quorum_size() or slot in self._learn_sent:
            return
        known = self._accepted.get(slot)
        if known is None:
            return  # we have not accepted our own proposal yet; wait for it
        self._learn_sent.add(slot)
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
        self._unsequenced.pop(broadcast_id, None)
        if slot <= self._delivered_seq or slot in self._pending:
            return  # already delivered (or queued) here
        self._pending[slot] = _PendingMessage(
            broadcast_id=broadcast_id, payload=payload["payload"],
            sender=payload["origin"])
        self._try_deliver()
