"""Fault plans as data, and the one driver that applies them to a cluster.

A *fault plan* is a tuple of ``(when, verb, target)`` steps.  ``when`` is a
delay in simulated ms after the previous step, or a failpoint phase of
:attr:`~repro.partition.cluster.PartitionedCluster.FAILPOINT_PHASES` (the
step then runs when the protocol reaches that point).  *Servers* are a tuple
of the facade's server names, or a slice of the group's servers by position
(:data:`DELEGATE`, :data:`NON_DELEGATES`, :data:`ALL_SERVERS`).  The verbs
and their targets:

* ``close-gates`` / ``open-gates`` — servers: freeze or resume the
  processing stage (the delivered-but-not-processed window of Fig. 5);
* ``crash`` — servers; ``crash-group`` — ``None``: the whole group;
* ``recover`` — ``(servers, step_ms)``: recover each in turn and let the
  simulation run ``step_ms`` after each;
* ``fault`` — ``(LinkFault, duration_ms)``: a link fault for a window;
* ``degrade-disk`` / ``degrade-cpu`` — ``(servers, factor)``;
  ``restore-disk`` / ``restore-cpu`` — servers;
* ``wait`` — ``None``: only the delay;
* ``workload`` (:data:`WORKLOAD`) — the scenario's turn: it submits,
  confirms or probes, then hands the plan back.

:class:`PlanDriver` applies a plan to either cluster facade.  Server verbs
are operator actions: the driver runs the simulation up to their instant.
Link faults and degradations are the environment: when due later, they go
on the simulator's calendar, so the workload runs on through their window.
A plan is measured from the moment the driver is made; after a workload
turn, from the moment the scenario hands it back.  Each scenario keeps only
its workload and its observations; its pattern table holds the plans.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import List, Mapping, Optional, Tuple, Union

from ..partition.cluster import PartitionedCluster

#: One plan step: (delay in ms or failpoint phase, verb, target).
Step = Tuple[Union[float, str], str, object]
Plan = Tuple[Step, ...]

#: The scenario's turn: :meth:`PlanDriver.advance` stops here.
WORKLOAD: Step = (0.0, "workload", None)
#: Server targets by position in the group, whatever its size: the
#: delegate is the first server.
ALL_SERVERS, DELEGATE, NON_DELEGATES = slice(None), slice(1), slice(1, None)

#: The verbs that go on the simulator's calendar when due later.
_CALENDAR = ("fault", "degrade-disk", "restore-disk", "degrade-cpu",
             "restore-cpu")


def plan_entry(table: Mapping[str, object], name: str, what: str):
    """``table[name]``; a ValueError listing the known names otherwise."""
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}; expected one of "
                         f"{sorted(table)}")
    return table[name]


class PlanDriver:
    """Applies one fault plan to a cluster, one workload turn at a time.

    On a :class:`~repro.partition.cluster.PartitionedCluster` the plan
    addresses the replica group ``shard`` (negative counts from the last);
    on a :class:`~repro.replication.cluster.ReplicatedDatabaseCluster`, the
    cluster itself.  A failpoint step must fire before the scenario's next
    turn is over: the driver raises :class:`RuntimeError` otherwise, so a
    pattern cannot pass without its fault.
    """

    def __init__(self, cluster, plan: Plan, shard: int = 0) -> None:
        self.cluster, self.sim = cluster, cluster.sim
        self._steps = deque(plan)
        #: Instant of the previous step; None after a workload turn.
        self._at: Optional[float] = self.sim.now
        self._unfired: List[str] = []
        #: Servers the plan crashed and recovered so far, in order.
        self.crashed: List[str] = []
        self.recovered: List[str] = []
        sharded = isinstance(cluster, PartitionedCluster)
        self.shard = shard % cluster.partition_count if sharded else None
        self.group = cluster.group(self.shard) if sharded else cluster
        #: Leading arguments of the facade's crash and recover calls.
        self._on = (self.shard,) if sharded else ()

    def advance(self) -> None:
        """Apply the steps up to the next workload turn, or to the end."""
        if self._unfired:
            raise RuntimeError(f"failpoint step(s) {self._unfired} never "
                               f"fired")
        while self._steps:
            when, verb, target = self._steps.popleft()
            if verb == "workload":
                self._at = None
                return
            if isinstance(when, str):
                self._unfired.append(when)
                self.cluster.add_failpoint(
                    when, partial(self._fire, when, verb, target))
                continue
            at = (self.sim.now if self._at is None else self._at) + when
            if at > self.sim.now and verb in _CALENDAR:
                self._at = at
                if verb == "fault":
                    self.cluster.lan.schedule_fault(
                        target[0], at=at, until=at + target[1])
                else:
                    self.sim.call_at(at, partial(self._act, verb, target))
                continue
            if at > self.sim.now:
                self.sim.run(until=at)
            self._act(verb, target)
            self._at = self.sim.now

    def finish(self) -> None:
        """Apply the rest of the plan; every failpoint step must have fired."""
        self.advance()
        if self._steps or self._unfired:
            raise RuntimeError(f"unfinished plan: failpoint step(s) "
                               f"{self._unfired} never fired, "
                               f"{len(self._steps)} step(s) left")

    def _fire(self, phase: str, verb: str, target, _context) -> None:
        self._unfired.remove(phase)
        self._act(verb, target)

    def _servers(self, target) -> List[str]:
        return (self.group.server_names()[target]
                if isinstance(target, slice) else list(target))

    def _act(self, verb: str, target) -> None:
        cluster, group = self.cluster, self.group
        if verb in ("close-gates", "open-gates"):
            for name in self._servers(target):
                gate = group.replica(name).processing_gate
                (gate.close if verb == "close-gates" else gate.open)()
        elif verb == "crash":
            for name in self._servers(target):
                cluster.crash_server(*self._on, name)
                self.crashed.append(name)
        elif verb == "crash-group":
            # crash_partition(shard) when sharded, else crash_all().
            (cluster.crash_partition if self._on else cluster.crash_all)(
                *self._on)
            self.crashed.extend(group.server_names())
        elif verb == "recover":
            names, step_ms = target
            for name in self._servers(names):
                cluster.recover_server(*self._on, name)
                self.recovered.append(name)
                if step_ms:
                    self.sim.run(until=self.sim.now + step_ms)
        elif verb == "fault":
            fault, duration = target
            cluster.lan.install_fault(fault)
            self.sim.call_after(duration, cluster.lan.remove_fault,
                                fault.name)
        elif verb == "degrade-disk":
            for name in self._servers(target[0]):
                group.database(name).degrade_disk(target[1])
        elif verb == "degrade-cpu":
            for name in self._servers(target[0]):
                group.node(name).degrade_cpu(target[1])
        elif verb == "restore-disk":
            for name in self._servers(target):
                group.database(name).restore_disk()
        elif verb == "restore-cpu":
            for name in self._servers(target):
                group.node(name).restore_cpu()
        elif verb != "wait":
            raise ValueError(f"unknown plan verb {verb!r}")
