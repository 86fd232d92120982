"""The dispatcher as a process: the reference model of a served inbox.

This is the loop ``src/repro/network/dispatch.py`` shipped until the served
store (:meth:`repro.sim.resources.Store.serve`) replaced it — a volatile
process parked on ``inbox.get()`` that charges the CPU and calls the handler
— kept as the obviously-correct model the property test in
``tests/test_network.py`` drives side by side with the real dispatcher.  It
pays two kernel events per message where the served inbox pays one (the
zero-delay ``get`` hand-off), plus a bootstrap per start and a completion
per kill.  One wart is kept as it was: the per-message cost is read once,
when the loop starts, so a later ``Node.degrade_cpu`` does not reach it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.network import Message, Node
from repro.sim import Simulator

MessageHandler = Callable[[Message], None]


class ReferenceDispatcher:
    """Routes incoming messages of one node to per-kind handlers."""

    def __init__(self, sim: Simulator, node: Node) -> None:
        self.sim = sim
        self.node = node
        self._handlers: Dict[str, MessageHandler] = {}
        self._default_handler: Optional[MessageHandler] = None
        self._running = False
        self.dispatched_count = 0
        self.unhandled_count = 0

    def register(self, kind: str, handler: MessageHandler) -> None:
        self._handlers[kind] = handler

    def register_default(self, handler: MessageHandler) -> None:
        self._default_handler = handler

    @property
    def is_running(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.node.spawn(self._loop(), name="dispatcher")

    def _loop(self):
        inbox_get = self.node.inbox.get
        use_cpu = self.node.cpu.use
        cpu_cost = self.node.cpu_time_per_network_op
        handlers = self._handlers
        try:
            while True:
                message = yield inbox_get()
                yield use_cpu(cpu_cost)
                self.dispatched_count += 1
                handler = handlers.get(message.kind, self._default_handler)
                if handler is None:
                    self.unhandled_count += 1
                    continue
                handler(message)
        finally:
            self._running = False
