"""The Multi-Paxos leader policy: the leader is Ω.

The ordering protocol is :mod:`repro.gcs.total_order`'s — Multi-Paxos with
a cumulative decision — under the Paxos message kinds: ``PROPOSE`` to the
leader, ``ACCEPT(ballot, seq, m)`` to the view, ``ACCEPTED(held)`` back,
``LEARN(up_to)`` to the view, ``PREPARE(ballot, from)`` / ``PROMISE`` for
a leader change and ``NACK(promised)`` for a stale ballot.  A quiet
broadcast to N members costs 3N + 1 messages, as on the fixed sequencer;
only the leader differs.

The leader is the lowest-ranked member of the static group the failure
detector does not currently suspect (Chandra & Toueg's Ω read off the
detector).  It can change without a view change (a restored member leads
again once it is trusted), so a leader that finds itself unestablished
collects when a submission reaches it.
"""

from __future__ import annotations

from typing import Optional

from ..core.layers import implements, uses
from .total_order import TotalOrderEngine


@implements("total_order")
@uses("reliable_broadcast")
@uses("failure_detector")
class MultiPaxosEngine(TotalOrderEngine):
    """One member's endpoint of the Multi-Paxos ordering protocol."""

    KIND_SUBMIT = "PAXOS.PROPOSE"
    KIND_ORDER = "PAXOS.ACCEPT"
    KIND_ANSWER = "PAXOS.ACCEPTED"
    KIND_DECIDE = "PAXOS.LEARN"
    KIND_PREPARE = "PAXOS.PREPARE"
    KIND_PROMISE = "PAXOS.PROMISE"
    KIND_NACK = "PAXOS.NACK"

    def coordinator(self) -> Optional[str]:
        """The lowest-ranked static member the failure detector trusts."""
        for member in self.group.members:
            if not self.failure_detector.is_suspected(member):
                return member
        return None
