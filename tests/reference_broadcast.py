"""The properties of atomic broadcast, as checks over an observed history.

Sect. 2.3 of the paper states validity, uniform agreement, uniform integrity
and uniform total order for atomic broadcast, and Sect. 4.2 adds the
end-to-end property.  :class:`BroadcastTrace` is the history of what every
endpoint A-broadcast, A-delivered and acknowledged, and states each property
as a check over it; tests compare the engines against these checks.
Uniform agreement and the end-to-end property bind only the non-red
processes (those that are eventually forever up), which the caller names.

A run does not keep this history itself: :func:`broadcast_trace` rebuilds it
from the ``abcast.broadcast``, ``abcast.deliver`` and ``abcast.ack`` instants
the endpoints log on the span tracer (``sim.obs``), so a test attaches an
:class:`~repro.obs.tracer.Observability` before it runs the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import Observability


@dataclass
class DeliveryRecord:
    """One observed A-deliver event."""

    member: str
    broadcast_id: str
    sequence: int
    delivered_at: float
    acknowledged: bool = False
    acknowledged_at: Optional[float] = None


@dataclass
class BroadcastTrace:
    """The observable history of a group of broadcast endpoints.

    Collecting the sent broadcasts and the per-member delivery sequences is
    enough to check validity, integrity, total order and (given the non-red
    members) agreement.
    """

    sent: List[str] = field(default_factory=list)
    deliveries: List[DeliveryRecord] = field(default_factory=list)
    #: (member, broadcast id) -> the member's latest record of the broadcast,
    #: so an acknowledgement finds its delivery without scanning the history.
    _by_key: Dict[Tuple[str, str], DeliveryRecord] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def record_send(self, broadcast_id: str) -> None:
        """Record that ``broadcast_id`` was A-broadcast."""
        self.sent.append(broadcast_id)

    def record_delivery(self, record: DeliveryRecord) -> None:
        """Record one A-deliver event."""
        self.deliveries.append(record)
        self._by_key[(record.member, record.broadcast_id)] = record

    def record_ack(self, member: str, broadcast_id: str, at: float) -> None:
        """Record that ``member`` acknowledged ``broadcast_id`` at ``at``."""
        record = self._by_key.get((member, broadcast_id))
        if record is not None:
            record.acknowledged = True
            record.acknowledged_at = at

    def sequence_at(self, member: str) -> List[str]:
        """Broadcast ids delivered at ``member``, in delivery order."""
        ordered = sorted((d for d in self.deliveries if d.member == member),
                         key=lambda d: (d.delivered_at, d.sequence))
        return [d.broadcast_id for d in ordered]

    # -- property checks ----------------------------------------------------------
    def check_validity(self) -> bool:
        """Every delivered message was actually broadcast."""
        sent = set(self.sent)
        return all(d.broadcast_id in sent for d in self.deliveries)

    def check_integrity(self) -> bool:
        """No member delivered the same message twice."""
        seen = set()
        for delivery in self.deliveries:
            key = (delivery.member, delivery.broadcast_id)
            if key in seen:
                return False
            seen.add(key)
        return True

    def check_total_order(self) -> bool:
        """All members deliver common messages in the same relative order."""
        sequences = {}
        for delivery in self.deliveries:
            sequences.setdefault(delivery.member, [])
        for member in sequences:
            sequences[member] = self.sequence_at(member)
        members = list(sequences)
        for i, first in enumerate(members):
            first_ids = set(sequences[first])
            for second in members[i + 1:]:
                second_ids = set(sequences[second])
                common = [m for m in sequences[first] if m in second_ids]
                other = [m for m in sequences[second] if m in first_ids]
                if common != other:
                    return False
        return True

    def check_uniform_agreement(self, non_red_members: Sequence[str]) -> bool:
        """Every message delivered anywhere is delivered by all non-red members."""
        delivered_anywhere = {d.broadcast_id for d in self.deliveries}
        for member in non_red_members:
            delivered_here = set(self.sequence_at(member))
            if not delivered_anywhere.issubset(delivered_here):
                return False
        return True

    def check_end_to_end(self, non_red_members: Sequence[str]) -> bool:
        """Every delivery at a non-red member is eventually acknowledged."""
        for delivery in self.deliveries:
            if delivery.member in non_red_members and not delivery.acknowledged:
                return False
        return True


def broadcast_trace(obs: Observability) -> BroadcastTrace:
    """The broadcast history the endpoints logged on ``obs``.

    Each endpoint logs on the track ``gcs.<member>``; an instant that is
    not an ``abcast.*`` one adds nothing.
    """
    trace = BroadcastTrace()
    for instant in obs.instants:
        member = instant.track.removeprefix("gcs.")
        broadcast_id = instant.labels.get("broadcast_id")
        if instant.name == "abcast.broadcast":
            trace.record_send(broadcast_id)
        elif instant.name == "abcast.deliver":
            trace.record_delivery(DeliveryRecord(
                member=member, broadcast_id=broadcast_id,
                sequence=instant.labels["sequence"],
                delivered_at=instant.at))
        elif instant.name == "abcast.ack":
            trace.record_ack(member, broadcast_id, instant.at)
    return trace
