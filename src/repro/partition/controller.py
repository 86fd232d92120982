"""Autobalance: a closed-loop controller driving ``cluster.rebalance()``.

PR 2 made shard rebalancing *possible* online; this module makes it
*automatic*.  A :class:`RebalanceController` is a simulated process that
watches **windowed** per-shard load derived from the routing table's access
counters and triggers :meth:`~repro.partition.cluster.PartitionedCluster.
rebalance` when one shard's share of the recent window exceeds a threshold —
no operator in the loop.

The control problem is damping, not detection: a naive "move the hottest
shard every window" controller chases noise and ping-pongs ranges between
groups (each move pays a copy, a fence, and a round of wrong-epoch retries).
Three mechanisms keep it stable:

* **Windowed load.**  Every window the controller reads the per-shard totals
  and then calls :meth:`~repro.partition.routing.RoutingTable.roll_window`,
  decaying the counters — the only decay path the routing table has; the
  signal it acts on is an exponentially weighted view of roughly the last
  ``1 / (1 - DECAY_FACTOR)`` windows, so yesterday's hot set cannot trigger
  today's move.
* **Cooldown.**  After triggering a rebalance the controller sits out
  ``cooldown_windows`` windows, letting the migration finish and the load
  signal re-form around the new map before judging it.
* **Hysteresis.**  A key range that was moved within the last
  ``hysteresis_windows`` windows is not moved again, even if it is the
  hottest — an alternating hotspot oscillating faster than the hysteresis
  horizon is deliberately left alone rather than chased.

Every decision is counted in :class:`ControllerStats` (exposed through
:class:`~repro.partition.stats.PartitionedRunStatistics`), so experiments
can see not just what the controller did but what it declined to do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from .routing import KeyRange

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..sim.process import Process
    from .cluster import PartitionedCluster


@dataclass
class ControllerStats:
    """Every decision the controller took (or declined), for experiments."""

    #: Windows observed (one evaluation each).
    windows_observed: int = 0
    #: Rebalances actually triggered.
    rebalances_triggered: int = 0
    #: Windows skipped because too little traffic was observed or no shard
    #: crossed the share threshold.
    skipped_below_threshold: int = 0
    #: Windows skipped inside the post-trigger cooldown.
    skipped_cooldown: int = 0
    #: Triggers suppressed because the hot range moved recently.
    skipped_hysteresis: int = 0
    #: Windows skipped because a migration was still in flight.
    skipped_migration_active: int = 0
    #: Triggers that failed synchronously (e.g. no legal destination).
    trigger_failures: int = 0
    #: (window index, migrated range) of every triggered move.
    moves: List[Tuple[int, KeyRange]] = field(default_factory=list)


class RebalanceController:
    """Watches windowed shard load and rebalances hot shards automatically.

    Attach one to a running :class:`~repro.partition.cluster.
    PartitionedCluster` and :meth:`start` it::

        controller = RebalanceController(cluster, window_ms=500.0,
                                         share_threshold=0.45)
        controller.start()
        cluster.run(until=20_000)

    Each trigger is a plain ``cluster.rebalance(shard=...)``: the migration
    copies with the defaults of :mod:`repro.partition.migration`.

    Parameters
    ----------
    window_ms:
        Length of one observation window (one evaluation per window).
    share_threshold:
        Trigger when the hottest shard carries more than this fraction of
        the window's observed accesses.
    cooldown_windows:
        Windows to sit out after a trigger before evaluating again.
    hysteresis_windows:
        Don't re-move a range that was moved within this many windows.
    min_window_accesses:
        Ignore windows with fewer observed accesses than this — a share
        computed over a handful of accesses is noise, not load.

    After each evaluation the routing table's counters are decayed by
    :data:`~repro.partition.routing.DECAY_FACTOR`.
    """

    def __init__(self, cluster: "PartitionedCluster",
                 window_ms: float = 500.0,
                 share_threshold: float = 0.45,
                 cooldown_windows: int = 2,
                 hysteresis_windows: int = 4,
                 min_window_accesses: int = 32) -> None:
        if window_ms <= 0:
            raise ValueError(f"window must be positive, got {window_ms!r}")
        if not 0.0 < share_threshold < 1.0:
            raise ValueError(
                f"share threshold must be in (0, 1), got {share_threshold!r}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.window_ms = window_ms
        self.share_threshold = share_threshold
        self.cooldown_windows = cooldown_windows
        self.hysteresis_windows = hysteresis_windows
        self.min_window_accesses = min_window_accesses
        self.stats = ControllerStats()
        self._window = 0
        self._last_trigger_window: Optional[int] = None
        self._process: Optional["Process"] = None
        cluster.controller = self

    # -- lifecycle ----------------------------------------------------------------------
    def start(self) -> "Process":
        """Spawn the controller loop (idempotent)."""
        if self._process is None or not self._process.is_alive:
            self._process = self.sim.spawn(self._loop(),
                                           name="controller.autobalance")
        return self._process

    def stop(self) -> None:
        """Stop the controller loop (a triggered migration still finishes)."""
        if self._process is not None and self._process.is_alive:
            self._process.kill()
            self._process = None

    def _loop(self):
        while True:
            yield self.sim.timeout(self.window_ms)
            self._window += 1
            self.stats.windows_observed += 1
            self._evaluate()
            self.cluster.routing.roll_window()

    # -- one control decision -----------------------------------------------------------
    def _in_cooldown(self) -> bool:
        return (self._last_trigger_window is not None and
                self._window - self._last_trigger_window <=
                self.cooldown_windows)

    def _recently_moved(self, key_range: KeyRange) -> bool:
        for window, moved in self.stats.moves:
            if self._window - window > self.hysteresis_windows:
                continue
            if moved.lo < key_range.hi and key_range.lo < moved.hi:
                return True
        return False

    def _skip(self, obs, reason: str) -> None:
        """Mark one declined window on the span tracer, if attached."""
        if obs is not None:
            obs.instant("controller.skip", track="controller",
                        labels={"window": self._window, "reason": reason})

    def _evaluate(self) -> None:
        cluster = self.cluster
        obs = self.sim.obs
        if cluster.partition_count < 2:
            self.stats.skipped_below_threshold += 1
            self._skip(obs, "single-partition")
            return
        if cluster.migration_active:
            self.stats.skipped_migration_active += 1
            self._skip(obs, "migration-active")
            return
        if self._in_cooldown():
            self.stats.skipped_cooldown += 1
            self._skip(obs, "cooldown")
            return
        totals = cluster.routing.shard_accesses()
        observed = sum(totals)
        if observed < self.min_window_accesses:
            self.stats.skipped_below_threshold += 1
            self._skip(obs, "below-threshold")
            return
        hottest = max(range(len(totals)), key=totals.__getitem__)
        share = totals[hottest] / observed
        if share <= self.share_threshold:
            self.stats.skipped_below_threshold += 1
            self._skip(obs, "below-threshold")
            return
        hot_range = cluster.routing.range_of(hottest)
        if self._recently_moved(hot_range):
            self.stats.skipped_hysteresis += 1
            self._skip(obs, "hysteresis")
            return
        try:
            cluster.rebalance(shard=hottest)
        except (ValueError, RuntimeError):
            # No legal destination / a migration raced us; try again later.
            self.stats.trigger_failures += 1
            self._skip(obs, "trigger-failed")
            return
        self.stats.rebalances_triggered += 1
        self._last_trigger_window = self._window
        moved = cluster.migration_reports[-1].key_range
        self.stats.moves.append((self._window, moved))
        if obs is not None:
            obs.instant("controller.rebalance", track="controller",
                        labels={"window": self._window, "shard": hottest,
                                "share": round(share, 4),
                                "range": repr(moved)})

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<RebalanceController window={self.window_ms}ms "
                f"threshold={self.share_threshold:.0%} "
                f"triggered={self.stats.rebalances_triggered}>")
