"""Stable message log of the group-communication component.

End-to-end atomic broadcast (Sect. 4.2 of the paper) requires the group
communication component to *log messages and use log-based recovery*: every
message is recorded at delivery time, and the acknowledgement of the
application (``ack(m)``, i.e. successful delivery) is recorded when it
arrives.  After a crash, the messages whose acknowledgement is missing are
replayed to the application.

The log lives on the node's stable storage, so it survives crashes — that is
the whole point.  The classical atomic broadcast does **not** use this log,
which is exactly why it cannot be used to build 2-safe replication (Sect. 3).

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
application's testable-transaction registry (plus the log's acknowledged
flag) ensures at-most-once *successful* delivery.  This is the primitive that
makes 2-safe database replication possible (Sect. 4.3, Fig. 7), at the price
of a stable-storage write per delivery, and it works identically under every
ordering engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..network.node import Node
from ..db.stable_storage import StableStorage


@dataclass
class LoggedMessage:
    """One delivered message as recorded on stable storage."""

    sequence: int
    broadcast_id: str
    payload: Any
    delivered_at: float
    acknowledged: bool = False
    acknowledged_at: Optional[float] = None


class GcsMessageLog:
    """Crash-surviving record of delivered messages and their acknowledgements."""

    def __init__(self, node: Node, name: str = "gcs_log",
                 log_time: float = 0.0) -> None:
        self.node = node
        #: Time charged on a disk for logging one delivery.  The protocol
        #: experiments leave it at 0 (timing is irrelevant there); the 2-safe
        #: performance ablation sets it to a Table 4 write time to expose the
        #: cost of end-to-end guarantees.
        self.log_time = log_time
        self._storage: StableStorage = node.register_stable(
            f"{name}.messages", StableStorage(f"{node.name}.{name}"))

    # -- recording ----------------------------------------------------------------
    def record_delivery(self, sequence: int, broadcast_id: str, payload: Any,
                        delivered_at: float) -> LoggedMessage:
        """Durably record that message ``broadcast_id`` was delivered."""
        existing = self._storage.get(broadcast_id)
        if existing is not None:
            return existing
        entry = LoggedMessage(sequence=sequence, broadcast_id=broadcast_id,
                              payload=payload, delivered_at=delivered_at)
        self._storage.put(broadcast_id, entry)
        return entry

    def record_ack(self, broadcast_id: str, acknowledged_at: float) -> None:
        """Durably record the application's ack(m) for ``broadcast_id``."""
        entry: Optional[LoggedMessage] = self._storage.get(broadcast_id)
        if entry is None:
            return
        entry.acknowledged = True
        entry.acknowledged_at = acknowledged_at
        self._storage.put(broadcast_id, entry)

    # -- queries -------------------------------------------------------------------
    def is_logged(self, broadcast_id: str) -> bool:
        """True if delivery of ``broadcast_id`` was recorded on this server."""
        return broadcast_id in self._storage

    def is_acknowledged(self, broadcast_id: str) -> bool:
        """True if the application acknowledged ``broadcast_id`` here."""
        entry = self._storage.get(broadcast_id)
        return bool(entry and entry.acknowledged)

    def entries(self) -> List[LoggedMessage]:
        """All logged messages, in delivery (sequence) order."""
        return sorted((self._storage.get(key)
                       for key in self._storage.keys()),
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

    def as_dict(self) -> Dict[str, LoggedMessage]:
        """Mapping broadcast id -> logged entry (a shallow copy)."""
        return {entry.broadcast_id: entry for entry in self.entries()}

    def __len__(self) -> int:
        return len(self._storage)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<GcsMessageLog {self.node.name} logged={len(self)} "
                f"unacked={len(self.unacknowledged())}>")
