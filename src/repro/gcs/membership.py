"""View-based group membership (the dynamic crash no-recovery model).

The history of the group is a sequence of *views* v0, v1, ... (Sect. 2.3 of
the paper); a new view is installed whenever a member is suspected to have
crashed or a (recovered) member rejoins.  The membership service here is a
shared object: real group-membership protocols agree on views with a
consensus round, which the simulation abstracts away since view agreement is
orthogonal to the safety questions studied.

The membership also answers the question the replication techniques care
about most: *did the group fail?*  A group fails when fewer than a quorum
(majority of the static membership, by default) of members remain in the
view — at that point the group-communication system can no longer guarantee
the durability that group-safety relies on (Table 2 / Table 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.layers import implements, uses
from ..sim.engine import Simulator
from .failure_detector import FailureDetector

ViewListener = Callable[["View"], None]


@dataclass(frozen=True)
class View:
    """One installed view: an identifier plus the ordered member list."""

    view_id: int
    members: Tuple[str, ...]
    installed_at: float = 0.0

    def __contains__(self, member: str) -> bool:
        return member in self.members

    def __len__(self) -> int:
        return len(self.members)

    @property
    def primary(self) -> Optional[str]:
        """The first member of the view (used as sequencer / coordinator)."""
        return self.members[0] if self.members else None


@implements("membership")
@uses("failure_detector")
class GroupMembership:
    """Tracks the current view of a static set of potential members."""

    def __init__(self, sim: Simulator, members: Sequence[str],
                 failure_detector: Optional[FailureDetector] = None) -> None:
        if not members:
            raise ValueError("a group needs at least one member")
        self.sim = sim
        self.static_members: Tuple[str, ...] = tuple(members)
        self.quorum_size = len(self.static_members) // 2 + 1
        self._listeners: List[ViewListener] = []
        self._history: List[View] = []
        self._install(tuple(members))
        if failure_detector is not None:
            failure_detector.subscribe(self._on_suspicion)

    # -- views --------------------------------------------------------------------
    @property
    def view(self) -> View:
        """The currently installed view."""
        return self._history[-1]

    @property
    def history(self) -> List[View]:
        """All installed views, oldest first."""
        return list(self._history)

    def _install(self, members: Tuple[str, ...]) -> View:
        view = View(view_id=len(self._history), members=members,
                    installed_at=self.sim.now)
        self._history.append(view)
        for listener in list(self._listeners):
            listener(view)
        return view

    def subscribe(self, listener: ViewListener) -> None:
        """Register a callback invoked at each view installation."""
        self._listeners.append(listener)

    # -- membership changes ------------------------------------------------------------
    def remove_member(self, member: str) -> Optional[View]:
        """Install a new view without ``member`` (no-op if already absent)."""
        current = self.view.members
        if member not in current:
            return None
        return self._install(tuple(m for m in current if m != member))

    def add_member(self, member: str) -> Optional[View]:
        """Install a new view including ``member`` (no-op if already present).

        The member list keeps the order of the static membership so that the
        sequencer choice (lowest-ranked member) is deterministic.
        """
        current = set(self.view.members)
        if member in current:
            return None
        if member not in self.static_members:
            raise ValueError(f"{member!r} is not part of the static group")
        current.add(member)
        ordered = tuple(m for m in self.static_members if m in current)
        return self._install(ordered)

    def _on_suspicion(self, member: str, event: str) -> None:
        if member not in self.static_members:
            # On a shared LAN the failure detector watches every node,
            # including nodes of other replica groups; only notifications
            # about this group's own members concern this membership.
            return
        if event == "suspect":
            self.remove_member(member)
        elif event == "restore":
            self.add_member(member)

    # -- group failure ------------------------------------------------------------------
    @property
    def has_quorum(self) -> bool:
        """True while the view still contains a quorum of the static group."""
        return len(self.view) >= self.quorum_size

    @property
    def group_failed(self) -> bool:
        """True once the view lost its quorum ("the group fails", Table 3)."""
        return not self.has_quorum

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<GroupMembership view={self.view.view_id} members={self.view.members}>"
