"""Facade wiring the group-communication component of a whole cluster.

:class:`GroupCommunicationSystem` is the composition root of the protocol
stack: for a set of nodes attached to one LAN it builds the shared failure
detector, the view-based membership, and — per node — a message dispatcher,
a reliable-broadcast layer and one total-order engine endpoint (chosen by
name from :mod:`repro.gcs.engines`).  The replication techniques receive
this object and only talk to their local endpoint (``system.endpoint(name)``)
and dispatcher (``system.dispatcher(name)``) — mirroring the architecture of
Fig. 1 where the application uses the group-communication component without
knowing how it is implemented.

The engines sit below the membership layer, so this module also performs the
dependency inversion between the two: each engine receives a
:class:`~repro.gcs.total_order.MembershipPort` (downward-facing callables)
and the membership's view installations are subscribed *down* into
``engine.on_view_change``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..network.dispatch import Dispatcher
from ..network.lan import Lan
from ..network.node import Node
from ..sim.engine import Simulator
from .engines import DEFAULT_ENGINE, resolve_engine
from .failure_detector import build_failure_detector
from .membership import GroupMembership
from .message_log import GcsMessageLog
from .reliable_broadcast import ReliableBroadcastLayer
from .spec import BroadcastTrace
from .total_order import MembershipPort, TotalOrderEngine


class GroupCommunicationSystem:
    """All group-communication machinery of one replicated database cluster."""

    def __init__(self, sim: Simulator, lan: Lan,
                 nodes: Optional[Sequence[Node]] = None,
                 end_to_end: bool = False,
                 delivery_cpu_time: float = 0.07,
                 delivery_log_time: float = 0.0,
                 detection_delay: float = 1.0,
                 quorum_size: Optional[int] = None,
                 engine: str = DEFAULT_ENGINE,
                 detector_mode: str = "perfect",
                 heartbeat_period: float = 10.0,
                 heartbeat_timeout: float = 50.0) -> None:
        self.sim = sim
        self.lan = lan
        self.end_to_end = end_to_end
        self.engine_spec = resolve_engine(engine)
        self.engine_name = self.engine_spec.name
        members = list(nodes) if nodes is not None else list(lan.nodes)
        if not members:
            raise ValueError("the group needs at least one node")
        self.detector_mode = detector_mode
        self.failure_detector = build_failure_detector(
            detector_mode, sim, lan, members,
            detection_delay=detection_delay,
            heartbeat_period=heartbeat_period,
            heartbeat_timeout=heartbeat_timeout)
        self.membership = GroupMembership(
            sim, [node.name for node in members],
            failure_detector=self.failure_detector, quorum_size=quorum_size)
        self.trace = BroadcastTrace()
        group_port = MembershipPort(
            members=tuple(node.name for node in members),
            view=lambda: self.membership.view,
            quorum_size=lambda: self.membership.quorum_size,
            announce_join=self.membership.add_member)
        self._dispatchers: Dict[str, Dispatcher] = {}
        self._endpoints: Dict[str, TotalOrderEngine] = {}
        for node in members:
            dispatcher = Dispatcher(sim, node)
            self._dispatchers[node.name] = dispatcher
            if detector_mode == "heartbeat":
                self.failure_detector.bind_dispatcher(node.name, dispatcher)
            broadcast_layer = ReliableBroadcastLayer(sim, lan, node)
            journal = GcsMessageLog(node, name=f"{node.name}.e2e",
                                    log_time=delivery_log_time) \
                if end_to_end else None
            endpoint = self.engine_spec.build(
                sim=sim, node=node, dispatcher=dispatcher,
                broadcast_layer=broadcast_layer, group=group_port,
                failure_detector=self.failure_detector,
                delivery_cpu_time=delivery_cpu_time, trace=self.trace,
                journal=journal)
            self.membership.subscribe(endpoint.on_view_change)
            self._endpoints[node.name] = endpoint

    # -- access ---------------------------------------------------------------
    def endpoint(self, name: str) -> TotalOrderEngine:
        """The total-order broadcast endpoint of server ``name``."""
        return self._endpoints[name]

    def dispatcher(self, name: str) -> Dispatcher:
        """The message dispatcher of server ``name``."""
        return self._dispatchers[name]

    @property
    def endpoints(self) -> List[TotalOrderEngine]:
        """All endpoints, in node order."""
        # repro: allow(ordering-hazard): registration order is node order, deterministic
        return list(self._endpoints.values())

    def member_names(self) -> List[str]:
        """Names of all static group members."""
        return list(self._endpoints)

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        """Start dispatchers and endpoints on every node that is up."""
        for name, endpoint in self._endpoints.items():
            node = self.lan.node(name)
            if node.is_crashed:
                continue
            self._dispatchers[name].start()
            endpoint.start()

    def start_member(self, name: str) -> None:
        """Start (or restart) the dispatcher and endpoint of one member."""
        self._dispatchers[name].start()
        self._endpoints[name].start()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "end-to-end" if self.end_to_end else "classical"
        return (f"<GroupCommunicationSystem {self.engine_name} {kind} "
                f"members={self.member_names()}>")
