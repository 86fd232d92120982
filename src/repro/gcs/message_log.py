"""Stable message log of the group-communication component.

End-to-end atomic broadcast (Sect. 4.2 of the paper) requires the group
communication component to *log messages and use log-based recovery*: every
message is recorded at delivery time, and the acknowledgement of the
application (``ack(m)``, i.e. successful delivery) is recorded when it
arrives.  After a crash, the messages whose acknowledgement is missing are
replayed to the application.

The log lives on the node's stable storage: no crash listener clears it, so
it survives crashes — that is the whole point.  The classical atomic
broadcast does **not** use this log, which is exactly why it cannot be used
to build 2-safe replication (Sect. 3).

End-to-end delivery is a composition option of any
:class:`~repro.gcs.total_order.TotalOrderEngine`, not a subclass: an engine
handed a :class:`GcsMessageLog` as its ``journal``

* records every message on the log when it is delivered to the application,
  charging ``log_time`` on a disk for it;
* durably marks the message as processed when the application signals
  *successful delivery* with ``endpoint.acknowledge(delivery)`` — the
  inter-component ``ack(m)`` of Fig. 6;
* replays, in ``endpoint.recover()`` after a crash, every logged message whose
  acknowledgement is missing, so a non-red process eventually successfully
  delivers every message it delivered — the End-to-End property.

The refined uniform integrity holds because replays are marked and the
outcome records of the application's write-ahead log (testable
transactions, plus this log's acknowledged flag) ensure at-most-once
*successful* delivery.  This is the primitive that makes 2-safe database
replication possible (Sect. 4.3, Fig. 7), at the price of a stable-storage
write per delivery, and it works identically under every ordering engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..network.node import Node


@dataclass
class LoggedMessage:
    """One delivered message as recorded on stable storage."""

    sequence: int
    broadcast_id: str
    payload: Any
    acknowledged: bool = False
    acknowledged_at: Optional[float] = None


class GcsMessageLog:
    """Crash-surviving record of delivered messages and their acknowledgements."""

    def __init__(self, node: Node, log_time: float = 0.0) -> None:
        self.node = node
        #: Time charged on a disk for logging one delivery.  The protocol
        #: experiments leave it at 0 (timing is irrelevant there); the 2-safe
        #: performance ablation sets it to a Table 4 write time to expose the
        #: cost of end-to-end guarantees.
        self.log_time = log_time
        #: broadcast id -> its logged message.
        self._storage: Dict[str, LoggedMessage] = {}

    # -- recording ----------------------------------------------------------------
    def record_delivery(self, sequence: int, broadcast_id: str,
                        payload: Any) -> LoggedMessage:
        """Durably record that message ``broadcast_id`` was delivered."""
        existing = self._storage.get(broadcast_id)
        if existing is not None:
            return existing
        entry = LoggedMessage(sequence=sequence, broadcast_id=broadcast_id,
                              payload=payload)
        self._storage[broadcast_id] = entry
        return entry

    def record_ack(self, broadcast_id: str, acknowledged_at: float) -> None:
        """Durably record the application's ack(m) for ``broadcast_id``."""
        entry = self._storage.get(broadcast_id)
        if entry is None:
            return
        entry.acknowledged = True
        entry.acknowledged_at = acknowledged_at

    # -- queries -------------------------------------------------------------------
    def entries(self) -> List[LoggedMessage]:
        """All logged messages, in delivery (sequence) order."""
        return sorted(self._storage.values(),
                      key=lambda entry: entry.sequence)

    def unacknowledged(self) -> List[LoggedMessage]:
        """Messages delivered but never acknowledged, in sequence order.

        These are exactly the messages the end-to-end broadcast replays after
        a crash (Fig. 7 of the paper).
        """
        return [entry for entry in self.entries() if not entry.acknowledged]

    def highest_sequence(self) -> int:
        """The largest sequence number ever logged here (0 if none)."""
        entries = self.entries()
        return entries[-1].sequence if entries else 0

    def __len__(self) -> int:
        return len(self._storage)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<GcsMessageLog {self.node.name} logged={len(self)} "
                f"unacked={len(self.unacknowledged())}>")
