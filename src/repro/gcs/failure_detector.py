"""Failure detection.

The atomic broadcast algorithms of the literature are specified in the
asynchronous model augmented with failure detectors (Chandra & Toueg).  Two
detectors share the oracle-layer contract of :class:`_SuspicionOracle`
(``subscribe`` / ``is_suspected`` and the suspect / restore counters):

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

from typing import Callable, Dict, List, Sequence

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


class _SuspicionOracle:
    """The contract every detector presents to membership and the engines:
    a suspicion map, its listeners and its suspect / restore counters."""

    def __init__(self, sim: Simulator, lan: Lan) -> None:
        self.sim = sim
        self.lan = lan
        self._listeners: List[SuspicionListener] = []
        self._suspected: Dict[str, bool] = {}
        #: Total suspect / restore announcements (the perf ledger reads these).
        self.suspicion_count = 0
        self.restore_count = 0

    # -- subscription -----------------------------------------------------------
    def subscribe(self, listener: SuspicionListener) -> None:
        """Register a listener for suspicion / restore notifications."""
        self._listeners.append(listener)

    # -- queries -----------------------------------------------------------------
    def is_suspected(self, member: str) -> bool:
        """True if ``member`` is currently suspected (crashed, or — for the
        heartbeat detector — cut off)."""
        return self._suspected.get(member, False)

    # -- announcements -------------------------------------------------------------
    def _announce(self, member: str, suspected: bool) -> None:
        """Record a suspicion change and notify every listener."""
        self._suspected[member] = suspected
        if suspected:
            self.suspicion_count += 1
        else:
            self.restore_count += 1
        kind = "suspect" if suspected else "restore"
        for listener in list(self._listeners):
            listener(member, kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        suspected = [name for name, flag in self._suspected.items() if flag]
        return f"<{type(self).__name__} suspected={suspected}>"


@implements("failure_detector")
@uses("links")
class FailureDetector(_SuspicionOracle):
    """A perfect, oracle-driven failure detector shared by the whole group."""

    def __init__(self, sim: Simulator, lan: Lan,
                 detection_delay: float = 1.0) -> None:
        if detection_delay < 0:
            raise ValueError("detection delay must be non-negative")
        super().__init__(sim, lan)
        self.detection_delay = detection_delay
        for node in lan.nodes:
            self._suspected[node.name] = node.is_crashed
            node.add_listener(self._on_node_event)

    # -- node events ---------------------------------------------------------------
    def _on_node_event(self, node: Node, event: str) -> None:
        if event in ("crash", "recover"):
            self.sim.call_after(self.detection_delay, self._detect, node,
                                event == "crash")

    def _detect(self, node: Node, crashed: bool) -> None:
        # Re-check the oracle: the node may have recovered (or re-crashed)
        # during the detection delay.
        if node.is_crashed == crashed:
            self._announce(node.name, crashed)


@implements("failure_detector")
@uses("links")
class HeartbeatFailureDetector(_SuspicionOracle):
    """An imperfect, timeout-based detector driven by real heartbeat traffic.

    Presents the same contract as the perfect :class:`FailureDetector`, so
    membership and the total-order engines run unchanged on top of it.

    Mechanics: each watched member broadcasts a :data:`HEARTBEAT_KIND`
    message to every peer each ``period`` ms.  Beats are sent by *ticks*:
    the members watched at construction share one chain of ticks, and each
    tick stamps every live member's own beat, then hands all their beats to
    the LAN at once (:meth:`~repro.network.lan.Lan.send_all` — one wire
    event per run of equal delays, so one per tick on a healthy LAN).  A
    crash takes the member off its chain; a member that starts later
    (recovery) gets a chain of its own, at its own phase.
    Receivers record last-heard times through their dispatcher
    (:meth:`bind_dispatcher`); the member's own beat counts as a local
    self-observation.  A periodic sweep suspects member ``M`` exactly when
    fewer than a majority of the group has heard from ``M`` within
    ``timeout`` — so a netsplit suspects the minority side, a crash suspects
    the crashed node, and a single slow or lossy link alone suspects nobody.

    A tick is exact: sent one member at a time, the beats of one chain
    would hold consecutive tie-break tickets at their instant, so nothing
    could sort between them (``tests/reference_heartbeat.py`` drives a beat
    process per member against it).
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
        super().__init__(sim, lan)
        self.period = period
        self.timeout = timeout
        self._members: List[str] = []
        #: (observer, member) -> simulated time the observer last heard the
        #: member.  The diagonal is the member's own local beat.
        self._last_heard: Dict[tuple, float] = {}
        #: Live member -> the chain of ticks that beats it.
        self._chain_of: Dict[str, List[str]] = {}
        for node in members:
            self._add_member(node)
        self._start_beating([node.name for node in members
                             if not node.is_crashed])
        self.sim.call_after(self.period, self._sweep)

    def _add_member(self, node: Node) -> None:
        name = node.name
        self._members.append(name)
        self._suspected[name] = node.is_crashed
        # Everyone starts fresh as of now: suspicion needs a full timeout of
        # silence, never a cold start.
        for other in self._members:
            self._last_heard[(other, name)] = self.sim.now
            self._last_heard[(name, other)] = self.sim.now
        node.add_listener(self._on_node_event)

    def bind_dispatcher(self, name: str, dispatcher: Dispatcher) -> None:
        """Route member ``name``'s incoming heartbeats into the freshness map.

        Called by the composition root once the per-node dispatchers exist;
        heartbeats then share the receive path (and per-message CPU charge)
        of every other protocol message.
        """
        dispatcher.register(HEARTBEAT_KIND, self._on_heartbeat)

    # -- heartbeat traffic ------------------------------------------------------
    def _start_beating(self, names: List[str]) -> None:
        """Beat ``names`` now and every period after, on one new chain."""
        for name in names:
            self._chain_of[name] = names
        self.sim.call_after(0.0, self._tick, names)

    def _tick(self, chain: List[str]) -> None:
        if not chain:
            return      # every member of the chain crashed
        now = self.sim.now
        beats = []
        for name in chain:
            self._last_heard[(name, name)] = now
            beat = Message(sender=name, destination="*", kind=HEARTBEAT_KIND)
            beats += [beat.with_destination(peer)
                      for peer in self._members if peer != name]
        self.lan.send_all(beats)
        self.sim.call_after(self.period, self._tick, chain)

    def _on_heartbeat(self, message: Message) -> None:
        self._last_heard[(message.destination, message.sender)] = self.sim.now

    def _on_node_event(self, node: Node, event: str) -> None:
        # Crash detection itself is timeout-driven (the beats stop); the
        # oracle events only take a member off its chain and start it again.
        if event == "crash":
            chain = self._chain_of.pop(node.name, None)
            if chain is not None:
                chain.remove(node.name)
        elif event == "recover":
            self._start_beating([node.name])

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
            if suspected != self._suspected[member]:
                self._announce(member, suspected)
        self.sim.call_after(self.period, self._sweep)


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
