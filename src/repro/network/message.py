"""Network message representation.

Messages are small plain envelopes: a sender, a destination, a ``kind``
tag used by protocol dispatch, and an arbitrary payload.  A process-wide
monotonically increasing identifier makes every message distinguishable; the
copies of one broadcast share it.  Only the LAN writes to an envelope: it
stamps ``sent_at`` when the message enters the network, which is why
``sent_at`` is excluded from equality.  Messages are not hashable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_message_ids = itertools.count(1)


def next_message_id() -> int:
    """Return a fresh unique message identifier."""
    return next(_message_ids)


@dataclass(slots=True)
class Message:
    """An envelope travelling on the simulated LAN.

    Attributes
    ----------
    sender:
        Name of the sending node.
    destination:
        Name of the receiving node (point-to-point) or ``"*"`` for the
        broadcast pseudo-destination.
    kind:
        Protocol-level tag (``"DATA"``, ``"ORDERED"``, ``"ACK"``...), used by
        receivers to dispatch.
    payload:
        Arbitrary application data.
    message_id:
        Unique identifier assigned at creation.
    sent_at:
        Simulated time at which the message entered the network.
    """

    sender: str
    destination: str
    kind: str
    payload: Any = None
    message_id: int = field(default_factory=next_message_id)
    #: Stamped by the LAN when the message is admitted
    #: (:meth:`repro.network.lan.Lan.send` / ``send_all``), so it is
    #: excluded from equality — a stored message compares the same before
    #: and after it is sent.
    sent_at: Optional[float] = field(default=None, compare=False)

    def with_destination(self, destination: str) -> "Message":
        """Return a copy of this message addressed to ``destination``.

        The copy keeps the same ``message_id`` so that the per-destination
        copies produced by a broadcast are recognisably the same message.
        """
        return Message(self.sender, destination, self.kind, self.payload,
                       self.message_id, self.sent_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Message(#{self.message_id} {self.kind} "
                f"{self.sender}->{self.destination})")
