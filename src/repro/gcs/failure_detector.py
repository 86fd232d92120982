"""Failure detection.

The atomic broadcast algorithms of the literature are specified in the
asynchronous model augmented with failure detectors (Chandra & Toueg).  Two
detectors share the oracle-layer contract (``watch`` / ``subscribe`` /
``is_suspected`` / ``alive_members``):

* the :class:`FailureDetector` is a *perfect* detector driven by the
  simulator's oracle knowledge of node crashes, with a configurable
  detection latency: ``detection_delay`` milliseconds after a node crashes,
  all subscribed members are notified of the suspicion (and symmetrically
  for recoveries / rejoins).  It is the default, and the standard simulation
  shortcut: the safety properties the experiments check do not depend on
  detector accuracy, only the liveness of view changes does.  It has one
  blind spot by construction — it only fires on crash events, so **network
  partitions are undetectable** to it;
* the :class:`HeartbeatFailureDetector` is an *imperfect*, timeout-based
  detector driven by real heartbeat traffic over the LAN
  (``SimulationParameters.failure_detector_mode = "heartbeat"``).  Every
  watched member broadcasts a small heartbeat message each
  ``heartbeat_period``; a member is suspected once fewer than a majority of
  the group (counting the member's own local beat) has heard from it within
  ``timeout``.  Partitions, message loss and slow links therefore *are*
  visible — and so are the detector's classic failure modes: a suspicion is
  a timeout, not a fact, and a live-but-partitioned member is suspected
  exactly like a crashed one.

The quorum-freshness rule makes the shared suspicion map the *majority
side's* view of a split: minority members go suspected (a majority never
hears them), majority members stay trusted (their own side still vouches
for a majority).  That matches the shared-view membership model of
:mod:`repro.gcs.membership`, which abstracts view agreement away.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.layers import implements, uses
from ..network.dispatch import Dispatcher
from ..network.lan import Lan
from ..network.message import Message
from ..network.node import Node
from ..sim.engine import Simulator

#: Callback signature: listener(member_name, event) with event "suspect"/"restore".
SuspicionListener = Callable[[str, str], None]

#: Message kind of the heartbeat traffic (routed by the node dispatchers).
HEARTBEAT_KIND = "fd.heartbeat"


@implements("failure_detector")
@uses("links")
class FailureDetector:
    """A perfect, oracle-driven failure detector shared by the whole group."""

    def __init__(self, sim: Simulator, lan: Lan,
                 detection_delay: float = 1.0) -> None:
        if detection_delay < 0:
            raise ValueError("detection delay must be non-negative")
        self.sim = sim
        self.lan = lan
        self.detection_delay = detection_delay
        self._listeners: List[SuspicionListener] = []
        self._suspected: Dict[str, bool] = {}
        #: Total suspect / restore announcements (metrics collectors read these).
        self.suspicion_count = 0
        self.restore_count = 0
        for node in lan.nodes:
            self._watch(node)

    def _watch(self, node: Node) -> None:
        self._suspected[node.name] = node.is_crashed
        node.add_listener(self._on_node_event)

    def watch(self, node: Node) -> None:
        """Start monitoring a node attached to the LAN after construction."""
        if node.name not in self._suspected:
            self._watch(node)

    # -- subscription -----------------------------------------------------------
    def subscribe(self, listener: SuspicionListener) -> None:
        """Register a listener for suspicion / restore notifications."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: SuspicionListener) -> None:
        """Remove a previously registered listener."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    # -- queries -----------------------------------------------------------------
    def is_suspected(self, member: str) -> bool:
        """True if ``member`` is currently suspected to have crashed."""
        return self._suspected.get(member, False)

    def alive_members(self) -> List[str]:
        """Names of members not currently suspected."""
        return [name for name, suspected in self._suspected.items()
                if not suspected]

    # -- node events ---------------------------------------------------------------
    def _on_node_event(self, node: Node, event: str) -> None:
        if event == "crash":
            self.sim.call_after(self.detection_delay,
                                lambda: self._announce(node, "suspect"))
        elif event == "recover":
            self.sim.call_after(self.detection_delay,
                                lambda: self._announce(node, "restore"))

    def _announce(self, node: Node, kind: str) -> None:
        # Re-check the oracle: the node may have recovered (or re-crashed)
        # during the detection delay.
        if kind == "suspect" and not node.is_crashed:
            return
        if kind == "restore" and node.is_crashed:
            return
        self._suspected[node.name] = (kind == "suspect")
        if kind == "suspect":
            self.suspicion_count += 1
        else:
            self.restore_count += 1
        for listener in list(self._listeners):
            listener(node.name, kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        suspected = [name for name, flag in self._suspected.items() if flag]
        return f"<FailureDetector suspected={suspected}>"


@implements("failure_detector")
@uses("links")
class HeartbeatFailureDetector:
    """An imperfect, timeout-based detector driven by real heartbeat traffic.

    Presents the same contract as the perfect :class:`FailureDetector`
    (``watch`` / ``subscribe`` / ``is_suspected`` / ``alive_members``), so
    membership and the total-order engines run unchanged on top of it.

    Mechanics: each watched member broadcasts a :data:`HEARTBEAT_KIND`
    message to every peer each ``period`` ms (the sender is a volatile node
    process — it dies with a crash and is respawned on recovery).  Receivers
    record last-heard times through their dispatcher
    (:meth:`bind_dispatcher`); the member's own beat counts as a local
    self-observation.  A periodic sweep suspects member ``M`` exactly when
    fewer than a majority of the group has heard from ``M`` within
    ``timeout`` — so a netsplit suspects the minority side, a crash suspects
    the crashed node, and a single slow or lossy link alone suspects nobody.

    All timing is driven by the two fixed knobs; the detector draws no
    randomness, so runs stay deterministic.
    """

    def __init__(self, sim: Simulator, lan: Lan,
                 members: Sequence[Node], period: float = 10.0,
                 timeout: float = 50.0) -> None:
        if period <= 0:
            raise ValueError("heartbeat period must be positive")
        if timeout < period:
            raise ValueError("heartbeat timeout must be >= the period")
        self.sim = sim
        self.lan = lan
        self.period = period
        self.timeout = timeout
        self._members: List[str] = []
        #: (observer, member) -> simulated time the observer last heard the
        #: member.  The diagonal is the member's own local beat.
        self._last_heard: Dict[tuple, float] = {}
        self._suspected: Dict[str, bool] = {}
        self._listeners: List[SuspicionListener] = []
        #: Total suspect / restore announcements (metrics collectors read these).
        self.suspicion_count = 0
        self.restore_count = 0
        for node in members:
            self._watch(node)
        self.sim.call_after(self.period, self._sweep)

    def _watch(self, node: Node) -> None:
        name = node.name
        self._members.append(name)
        self._suspected[name] = node.is_crashed
        # Everyone starts fresh as of now: suspicion needs a full timeout of
        # silence, never a cold start.
        for other in self._members:
            self._last_heard[(other, name)] = self.sim.now
            self._last_heard[(name, other)] = self.sim.now
        node.add_listener(self._on_node_event)
        if not node.is_crashed:
            node.spawn(self._beat_loop(node), name="fd.heartbeat")

    def watch(self, node: Node) -> None:
        """Start monitoring a node attached to the LAN after construction."""
        if node.name not in self._suspected:
            self._watch(node)

    def bind_dispatcher(self, name: str, dispatcher: Dispatcher) -> None:
        """Route member ``name``'s incoming heartbeats into the freshness map.

        Called by the composition root once the per-node dispatchers exist;
        heartbeats then share the receive path (and per-message CPU charge)
        of every other protocol message.
        """
        dispatcher.register(HEARTBEAT_KIND, self._on_heartbeat)

    # -- heartbeat traffic ------------------------------------------------------
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
        # Crash detection itself is timeout-driven (the beats stop); the
        # oracle event is only used to restart the sender on recovery.
        if event == "recover":
            node.spawn(self._beat_loop(node), name="fd.heartbeat")

    # -- the sweep ----------------------------------------------------------------
    def _quorum(self) -> int:
        return len(self._members) // 2 + 1

    def _fresh_observers(self, member: str, now: float) -> int:
        horizon = now - self.timeout
        count = 0
        for observer in self._members:
            if self._last_heard[(observer, member)] >= horizon:
                count += 1
        return count

    def _sweep(self) -> None:
        now = self.sim.now
        quorum = self._quorum()
        for member in self._members:
            suspected = self._fresh_observers(member, now) < quorum
            if suspected == self._suspected[member]:
                continue
            self._suspected[member] = suspected
            kind = "suspect" if suspected else "restore"
            if suspected:
                self.suspicion_count += 1
            else:
                self.restore_count += 1
            for listener in list(self._listeners):
                listener(member, kind)
        self.sim.call_after(self.period, self._sweep)

    # -- subscription -----------------------------------------------------------
    def subscribe(self, listener: SuspicionListener) -> None:
        """Register a listener for suspicion / restore notifications."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: SuspicionListener) -> None:
        """Remove a previously registered listener."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    # -- queries -----------------------------------------------------------------
    def is_suspected(self, member: str) -> bool:
        """True if ``member`` is currently suspected (crashed *or* cut off)."""
        return self._suspected.get(member, False)

    def alive_members(self) -> List[str]:
        """Names of members not currently suspected."""
        return [name for name, suspected in self._suspected.items()
                if not suspected]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        suspected = [name for name, flag in self._suspected.items() if flag]
        return (f"<HeartbeatFailureDetector period={self.period} "
                f"timeout={self.timeout} suspected={suspected}>")


def build_failure_detector(mode: str, sim: Simulator, lan: Lan,
                           members: Sequence[Node],
                           detection_delay: float = 1.0,
                           heartbeat_period: float = 10.0,
                           heartbeat_timeout: float = 50.0):
    """Build the detector selected by ``mode`` (``"perfect"`` / ``"heartbeat"``).

    The perfect detector watches every LAN node (its oracle view is global);
    the heartbeat detector watches exactly the group ``members``, so several
    groups on one shared LAN do not flood each other with beats.
    """
    if mode == "perfect":
        return FailureDetector(sim, lan, detection_delay=detection_delay)
    if mode == "heartbeat":
        return HeartbeatFailureDetector(sim, lan, members,
                                        period=heartbeat_period,
                                        timeout=heartbeat_timeout)
    raise ValueError(f"unknown failure-detector mode {mode!r}; "
                     f"expected 'perfect' or 'heartbeat'")
