"""Per-node message dispatching.

Every server runs exactly one :class:`Dispatcher`: it serves the node's inbox
(:meth:`repro.sim.resources.Store.serve`) and routes each message to the
handler registered for its ``kind``.  Both the group-communication endpoint
and the replication technique register handlers on the same dispatcher, which
models the fact that they live in the same operating-system process (Sect. 2.4
of the paper) and therefore crash together: a crash clears the inbox, and
with it the dispatcher stops until it is started again.

The served inbox charges the Table 4 CPU cost of a network operation
(0.07 ms, read from the node when each charge starts) for every received
message before the handler is invoked — that charge is the only kernel event
of a reception.  Handlers are plain callables executed at delivery; anything
that needs to consume simulated time spawns its own process on the node.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.layers import implements
from ..sim.engine import Simulator
from .message import Message
from .node import Node

MessageHandler = Callable[[Message], None]


@implements("links")
class Dispatcher:
    """Routes incoming messages of one node to per-kind handlers."""

    def __init__(self, sim: Simulator, node: Node) -> None:
        self.sim = sim
        self.node = node
        self._handlers: Dict[str, MessageHandler] = {}
        self._default_handler: Optional[MessageHandler] = None
        #: Messages received and dispatched (statistics).
        self.dispatched_count = 0
        #: Messages received with no registered handler (statistics).
        self.unhandled_count = 0

    # -- handler registration ---------------------------------------------------
    def register(self, kind: str, handler: MessageHandler) -> None:
        """Route messages whose ``kind`` equals ``kind`` to ``handler``."""
        self._handlers[kind] = handler

    # repro: allow(unused-surface): tests watch the served inbox with it
    def register_default(self, handler: MessageHandler) -> None:
        """Handler for message kinds nobody registered explicitly."""
        self._default_handler = handler

    # -- lifecycle ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """True while the node's inbox is served (from :meth:`start` to the
        node's next crash)."""
        return self.node.inbox.is_served

    def start(self) -> None:
        """Start (or restart after a crash) dispatching on the node."""
        if self.is_running:
            return
        self.node.serve(self.node.inbox, self._dispatch)

    def _dispatch(self, message: Message) -> None:
        self.dispatched_count += 1
        handler = self._handlers.get(message.kind, self._default_handler)
        if handler is None:
            self.unhandled_count += 1
        else:
            handler(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "running" if self.is_running else "stopped"
        return f"<Dispatcher {self.node.name} {state} kinds={len(self._handlers)}>"
