"""The heartbeat detector with one beat process per member: the reference
model of the detector's ticks.

This is how ``src/repro/gcs/failure_detector.py`` sent heartbeats until
ticks replaced it — a volatile process per live member that stamps its own
beat, broadcasts it to the peers and sleeps a period; killed with its node,
respawned on recovery, spawned by a late ``watch`` — kept as the
obviously-correct model the property test in ``tests/test_gcs_heartbeat.py``
drives side by side with the real detector.  Only the suspicion contract
(listeners, map, counters) is shared; membership, freshness and the sweep
are the old code as it was.  Per period it pays one timer and one wire
event per member where a tick pays one of each per chain, plus a bootstrap
per start and a completion per crash.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.gcs.failure_detector import HEARTBEAT_KIND, _SuspicionOracle
from repro.network import Dispatcher, Lan, Message, Node
from repro.sim import Simulator


class ReferenceHeartbeatDetector(_SuspicionOracle):
    """The timeout-based detector, beating with a process per member."""

    def __init__(self, sim: Simulator, lan: Lan, members: Sequence[Node],
                 period: float = 10.0, timeout: float = 50.0) -> None:
        super().__init__(sim, lan)
        self.period = period
        self.timeout = timeout
        self._members: List[str] = []
        self._last_heard: Dict[tuple, float] = {}
        for node in members:
            self._watch(node)
        self.sim.call_after(self.period, self._sweep)

    def _watch(self, node: Node) -> None:
        name = node.name
        self._members.append(name)
        self._suspected[name] = node.is_crashed
        for other in self._members:
            self._last_heard[(other, name)] = self.sim.now
            self._last_heard[(name, other)] = self.sim.now
        node.add_listener(self._on_node_event)
        if not node.is_crashed:
            node.spawn(self._beat_loop(node), name="fd.heartbeat")

    def bind_dispatcher(self, name: str, dispatcher: Dispatcher) -> None:
        dispatcher.register(HEARTBEAT_KIND, self._on_heartbeat)

    def _beat_loop(self, node: Node):
        name = node.name
        while True:
            self._last_heard[(name, name)] = self.sim.now
            self.lan.broadcast(
                Message(sender=name, destination="*", kind=HEARTBEAT_KIND),
                [peer for peer in self._members if peer != name])
            yield self.sim.timeout(self.period)

    def _on_heartbeat(self, message: Message) -> None:
        self._last_heard[(message.destination, message.sender)] = self.sim.now

    def _on_node_event(self, node: Node, event: str) -> None:
        if event == "recover":
            node.spawn(self._beat_loop(node), name="fd.heartbeat")

    def _sweep(self) -> None:
        now = self.sim.now
        quorum = len(self._members) // 2 + 1
        for member in self._members:
            fresh = sum(1 for observer in self._members
                        if self._last_heard[(observer, member)]
                        >= now - self.timeout)
            suspected = fresh < quorum
            if suspected != self._suspected[member]:
                self._announce(member, suspected)
        self.sim.call_after(self.period, self._sweep)
