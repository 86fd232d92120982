"""Atomic commitment of cross-partition transactions (2PC over replica groups).

A transaction spanning several partitions must commit on *all* of them or on
*none* — atomicity across shards, on top of whatever safety level each shard's
replica group provides.  The :class:`CrossPartitionCoordinator` implements a
two-phase commit whose participants are whole replica groups, not single
servers:

1. **Prepare.**  Each branch executes its read phase on a delegate of the
   owning group (optimistic, no locks — the same deferred-update discipline as
   the database state machine) and records the versions it observed.  A branch
   votes *yes* iff its delegate was reachable, the reads finished within the
   prepare timeout, the recorded versions are still current at vote
   collection (the certification test of Sect. 2.1 applied at the
   coordinator), **and** the routing snapshot the transaction was split
   against is still authoritative for the branch's keys — if a shard
   migration moved (or fenced) ownership under the transaction, the branch
   votes *no* with the ``xpartition-wrong-epoch`` reason and the submission
   path retries against the new epoch.
2. **Decision.**  The coordinator force-logs the global decision on the home
   partition's delegate (the classic 2PC forced write), then
3. **Commit.**  each branch's write set is submitted to the owning group as an
   update-only transaction through the group's *ordinary* replication
   technique.  An update-only transaction has an empty read set, so it passes
   certification deterministically on every group member; durability of each
   branch is therefore exactly the group's own guarantee — group-safe branches
   are entrusted to the group, 2-safe branches are logged everywhere, 1-safe
   branches are logged on the branch delegate.  Safety composes instead of
   being reimplemented.

If any branch votes *no*, nothing was installed anywhere (prepare stages
writes without applying them), so abort is simply a matter of answering the
client — all-or-nothing holds trivially.  On the commit path a branch that
aborts locally for transient reasons (a deadlock between two commit branches
on a lazy partition, a delegate crash) is retried, possibly on another member
of the group: once the decision is logged, participants must get to commit.

**Coordinator crash and decision replay.**  The coordinator is co-located
with the home partition's delegate (the server its forced decision record
lives on).  If that delegate crashes after the decision is durable but
before every branch is installed, the coordinator *dies with it*: phase 2
halts and the client blocks — the classic 2PC blocked state.  When the home
delegate recovers, :meth:`replay_decisions` scans its stable log for
``DECISION`` records and resumes phase 2 for every decided-but-unfinished
transaction, finally answering the client.  A decision record whose
transaction was already reported aborted to the client (the flush raced the
coordinator's bounded decision wait) is counted as an *orphan decision* and
reconciled in favour of the client-visible abort — nothing was installed
during prepare, so the abort answer was truthful.

**Isolation caveat.**  The coordinator guarantees *atomicity* (all-or-nothing
across partitions) and per-branch durability at each group's safety level —
not global serialisability.  The validation window closes at vote collection:
between the vote and the branch's installation in its group's total order, a
concurrent conflicting transaction can commit, in which case the branch's
blind writes overwrite it (a lost-update anomaly the single-group
certification discipline would have aborted).  Making commit infallible after
the decision — the essence of 2PC — is fundamentally in tension with
re-certifying at install time; closing the window would need prepare-time
locks that the certification-based techniques do not take for their own
transactions.  This mirrors the anomaly budget the paper itself tolerates for
lazy replication (Sect. 7) and is measured, not hidden: validation aborts and
the cross-partition abort rate are reported by the statistics module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..db.operations import Operation, OperationType, TransactionProgram
from ..db.transaction import Transaction
from ..db.wal import LogRecord, LogRecordType
from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .cluster import PartitionedCluster

#: Abort reasons the coordinator can produce.
ABORT_VALIDATION = "xpartition-validation"
ABORT_TIMEOUT = "xpartition-prepare-timeout"
ABORT_UNAVAILABLE = "xpartition-unavailable"
ABORT_WRONG_EPOCH = "xpartition-wrong-epoch"

#: Bound (ms) on the prepare phase and on the forced decision write.
PREPARE_TIMEOUT_MS = 2_000.0
#: A phase-2 branch retry waits ``RETRY_BACKOFF_MS * attempt``, capped at
#: ``MAX_RETRY_BACKOFF_MS``; a migration's chunk-copy retries reuse the same
#: schedule.
RETRY_BACKOFF_MS = 5.0
MAX_RETRY_BACKOFF_MS = 250.0


@dataclass
class BranchOutcome:
    """What happened to one partition's branch of a cross-partition transaction."""

    partition_id: int
    delegate: str
    voted_yes: bool = False
    #: Transaction id of the committed update-only branch on its partition
    #: (None for read-only branches and for aborted transactions).
    txn_id: Optional[str] = None
    committed: bool = False
    abort_reason: Optional[str] = None
    #: True while the global decision is *commit* but this branch's whole
    #: group is down — the classic blocked-participant state of 2PC.  The
    #: branch's writes are installed when the group recovers, never dropped.
    in_doubt: bool = False


@dataclass
class CrossPartitionOutcome:
    """Client-visible outcome of one cross-partition transaction."""

    xid: str
    committed: bool
    submitted_at: float
    responded_at: float
    partitions: Tuple[int, ...]
    abort_reason: Optional[str] = None
    branches: List[BranchOutcome] = field(default_factory=list)
    client: str = "client"

    @property
    def in_doubt(self) -> bool:
        """True while some decided branch is blocked on a crashed group."""
        return any(branch.in_doubt for branch in self.branches)

    @property
    def response_time(self) -> float:
        """Client-observed response time in milliseconds."""
        return self.responded_at - self.submitted_at

    def branch(self, partition_id: int) -> BranchOutcome:
        """The branch outcome for ``partition_id``."""
        for branch in self.branches:
            if branch.partition_id == partition_id:
                return branch
        raise KeyError(partition_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        verdict = "commit" if self.committed else f"abort({self.abort_reason})"
        return (f"<CrossPartitionOutcome {self.xid} {verdict} "
                f"partitions={self.partitions} rt={self.response_time:.1f}ms>")


@dataclass
class _PendingDecision:
    """A decided transaction whose phase 2 has not finished yet.

    Registered the moment the decision record is durable and removed when
    the client is answered; this is the state :meth:`CrossPartitionCoordinator.
    replay_decisions` resumes from after a home-delegate crash.
    """

    xid: str
    outcome: CrossPartitionOutcome
    transactions: Dict[int, Transaction]
    delegates: Dict[int, str]
    response_event: Event
    #: True once a replay pass took ownership of finishing phase 2 (the
    #: original, possibly still-scheduled, commit branches stand down).
    resuming: bool = False


class CrossPartitionCoordinator:
    """Two-phase commit across the replica groups of a partitioned cluster."""

    def __init__(self, cluster: "PartitionedCluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self._ids = itertools.count(1)
        #: Every cross-partition outcome produced so far, in response order;
        #: per-reason abort counts are derived from it.
        self.outcomes: List[CrossPartitionOutcome] = []
        #: Cross-partition transactions that committed on every branch.
        self.committed_count = 0
        #: Cross-partition transactions that aborted.
        self.aborted_count = 0
        #: Aborts because routing moved under the transaction.
        self.wrong_epoch_aborts = 0
        #: Durable decisions found on recovery whose client was already
        #: answered with an abort (the flush outran the bounded decision
        #: wait); reconciled in favour of the abort.
        self.orphan_decisions = 0
        #: Decided branches currently blocked on a crashed group.
        self.in_doubt_branches = 0
        #: Transaction ids of every committed phase-2 branch install, so the
        #: cluster can separate internal 2PC work from client fast-path
        #: results.
        self.branch_txn_ids: set = set()
        #: xid -> write keys of transactions between vote collection and the
        #: end of phase 2.  A live migration's fence drain waits for the
        #: entries touching its range: once a transaction is decided its
        #: branch installs *will* land on the (still-)owning group, so the
        #: range cannot move until they have.
        self.active_installs: Dict[str, frozenset] = {}
        #: xid -> decided-but-unfinished state for decision replay.
        self.decided_pending: Dict[str, _PendingDecision] = {}
        self._orphan_xids: set = set()

    # ------------------------------------------------------------------ submission
    def submit(self, program: TransactionProgram, client_index: int = 0,
               snapshot=None) -> Event:
        """Run 2PC for ``program``; the event fires with the outcome.

        ``snapshot`` is the routing view the caller classified the program
        against; branch epochs are validated against it in phase 1.
        """
        response_event = Event(self.sim)
        xid = f"xp-{next(self._ids)}"
        if snapshot is None:
            snapshot = self.cluster.router.snapshot()
        obs = self.sim.obs
        if obs is not None:
            # Root of the 2PC span tree; _run spawns with zero delay, so the
            # root's start equals the outcome's submitted_at and its duration
            # equals the client-observed response time exactly.
            obs.begin("2pc", category="txn", track="coordinator",
                      key=("xp", xid), root=True,
                      labels={"txn_id": xid, "client": program.client})
        self.sim.spawn(self._run(program, xid, response_event, client_index,
                                 snapshot),
                       name=f"xp.coordinator.{xid}")
        return response_event

    # ------------------------------------------------------------------ protocol
    def _run(self, program: TransactionProgram, xid: str,
             response_event: Event, client_index: int, snapshot):
        submitted_at = self.sim.now
        branches = self.cluster.router.split(program, snapshot=snapshot)
        partitions = tuple(sorted(branches))
        outcome = CrossPartitionOutcome(
            xid=xid, committed=False, submitted_at=submitted_at,
            responded_at=submitted_at, partitions=partitions,
            client=program.client)

        # Pick one delegate per involved partition (the group's own routing).
        delegates: Dict[int, str] = {}
        for partition_id in partitions:
            group = self.cluster.group(partition_id)
            if not group.up_servers():
                outcome.branches = [
                    BranchOutcome(partition_id=pid, delegate="")
                    for pid in partitions]
                self._finish(outcome, ABORT_UNAVAILABLE, response_event)
                return
            delegates[partition_id] = group.choose_delegate(client_index)
        outcome.branches = [
            BranchOutcome(partition_id=pid, delegate=delegates[pid])
            for pid in partitions]

        # -- phase 1: prepare every branch in parallel ----------------------
        prepare_procs = {
            partition_id: self.sim.spawn(
                self._prepare(partition_id, delegates[partition_id],
                              branches[partition_id], xid),
                name=f"xp.prepare.{xid}.p{partition_id}")
            for partition_id in partitions}
        timeout = self.sim.timeout(PREPARE_TIMEOUT_MS)
        yield self.sim.any_of(
            # repro: allow(ordering-hazard): insertion order is the sorted partition order
            [self.sim.all_of(list(prepare_procs.values())), timeout])

        timed_out = False
        transactions: Dict[int, Transaction] = {}
        for partition_id, process in prepare_procs.items():
            branch_outcome = outcome.branch(partition_id)
            if not process.triggered:
                # The branch delegate crashed (or stalled) mid-prepare; its
                # read events will never fire.  Vote no.
                timed_out = True
                branch_outcome.abort_reason = ABORT_TIMEOUT
                continue
            transaction = process.value
            if transaction is None:
                branch_outcome.abort_reason = ABORT_UNAVAILABLE
                continue
            transactions[partition_id] = transaction
            branch_outcome.voted_yes = True

        # -- vote collection: re-validate the observed versions -------------
        if len(transactions) == len(partitions):
            for partition_id, transaction in transactions.items():
                database = self.cluster.group(partition_id).database(
                    delegates[partition_id])
                if not database.certify(transaction.certification_payload()):
                    branch_outcome = outcome.branch(partition_id)
                    branch_outcome.voted_yes = False
                    branch_outcome.abort_reason = ABORT_VALIDATION

        # -- vote collection: re-validate the routing epoch ------------------
        # A shard migration may have moved (or fenced) ownership of a
        # branch's keys between the split and this point; committing the
        # branch to the snapshot's group would install writes the new owner
        # never sees.  Such branches vote no and the submitter retries
        # against the current epoch.
        for partition_id in partitions:
            branch_outcome = outcome.branch(partition_id)
            if not branch_outcome.voted_yes:
                continue
            keys = [operation.key
                    for operation in branches[partition_id].operations]
            if (not self.cluster.router.snapshot_is_current(keys, snapshot)
                    or self.cluster.routing_fenced(keys)):
                branch_outcome.voted_yes = False
                branch_outcome.abort_reason = ABORT_WRONG_EPOCH

        obs = self.sim.obs
        if obs is not None:
            obs.instant("2pc.vote", track="coordinator",
                        labels={"xid": xid,
                                "all_yes": all(branch.voted_yes
                                               for branch in outcome.branches),
                                "partitions": len(partitions)})
        all_yes = all(branch.voted_yes for branch in outcome.branches)
        if not all_yes:
            if timed_out:
                reason = ABORT_TIMEOUT
            elif any(branch.abort_reason == ABORT_UNAVAILABLE
                     for branch in outcome.branches):
                reason = ABORT_UNAVAILABLE
            elif any(branch.abort_reason == ABORT_WRONG_EPOCH
                     for branch in outcome.branches):
                reason = ABORT_WRONG_EPOCH
            else:
                reason = ABORT_VALIDATION
            # Nothing was installed during prepare, so aborting everywhere is
            # just a matter of answering the client.
            self._finish(outcome, reason, response_event)
            return

        # -- decision: force-log it on the home partition's delegate --------
        # The flush is bounded like the prepare phase: if the home delegate
        # crashes, its queued resource requests are silently cancelled (no
        # exception reaches a sim-spawned process), so an unbounded wait
        # would hang the client forever.  On timeout no branch has installed
        # anything yet, so aborting everywhere is safe.  The record has its
        # own WAL type (not COMMIT), so recovery redo, the safety audit and
        # ``committed_transactions()`` never mistake it for a transaction;
        # a straggler that becomes durable after a timed-out abort is
        # reconciled by :meth:`replay_decisions` (an orphan decision).
        # ``WriteAheadLog.force`` judges success by evidence, so a crash of
        # the home delegate before or during the flush reads as a failed
        # decision, never as a phantom forced write on a dead server.
        home = partitions[0]
        self.cluster.fire_failpoint("2pc.prepared", xid=xid, home=home,
                                    delegates=dict(delegates))
        home_node = self.cluster.group(home).node(delegates[home])
        home_db = self.cluster.group(home).database(delegates[home])
        self.active_installs[xid] = frozenset(
            key for transaction in transactions.values()
            for key in transaction.write_values)
        decision_span = None
        if obs is not None:
            decision_span = obs.begin("2pc.decision-log", category="disk",
                                      track="coordinator",
                                      parent=("xp", xid),
                                      labels={"home": delegates[home]})
        decision_process = self.sim.spawn(
            home_db.wal.force(LogRecord.decision(xid)),
            name=f"xp.decision.{xid}")
        yield self.sim.any_of(
            [decision_process, self.sim.timeout(PREPARE_TIMEOUT_MS)])
        if decision_span is not None:
            obs.end(decision_span,
                    labels={"durable": decision_process.triggered
                            and decision_process.value is True})
        if not decision_process.triggered or decision_process.value is not True:
            self._finish(outcome, ABORT_UNAVAILABLE, response_event)
            return

        # The decision is durable: from here on the transaction *will*
        # commit, even across a crash of the coordinator itself (which is
        # co-located with the home delegate) — replay_decisions resumes the
        # registered pending state when the delegate recovers.
        self.decided_pending[xid] = _PendingDecision(
            xid=xid, outcome=outcome, transactions=transactions,
            delegates=dict(delegates), response_event=response_event)
        self.cluster.fire_failpoint("2pc.decided", xid=xid, home=home,
                                    delegates=dict(delegates))

        # -- phase 2: make every write branch durable via its group ---------
        commit_procs = []
        for partition_id in partitions:
            transaction = transactions[partition_id]
            if not transaction.write_values:
                # Read-only branch: it voted, there is nothing to install.
                outcome.branch(partition_id).committed = True
                continue
            commit_procs.append(self.sim.spawn(
                self._commit_branch(partition_id, delegates[partition_id],
                                    transaction, xid,
                                    outcome.branch(partition_id),
                                    home_node=home_node),
                name=f"xp.commit.{xid}.p{partition_id}"))
        if commit_procs:
            yield self.sim.all_of(commit_procs)

        pending = self.decided_pending.get(xid)
        if pending is None or pending.resuming:
            # A recovery replay took the transaction over (and may already
            # have finished it — the pending entry is popped by _finish);
            # standing down here is what keeps the outcome from being
            # recorded twice.
            return
        if (not all(branch.committed for branch in outcome.branches)
                and home_node.is_crashed):
            # The coordinator died with its home delegate mid-phase-2.  The
            # decision is durable and registered; replay finishes the job
            # (and answers the client) when the delegate recovers.
            return
        self._finish(outcome, None, response_event)

    def _prepare(self, partition_id: int, delegate: str,
                 branch: TransactionProgram, xid: str):
        """Generator: execute the branch's read phase on its delegate."""
        obs = self.sim.obs
        span = None
        if obs is not None:
            # Also registered under the branch's transaction id so the
            # delegate-side db.read spans nest under the prepare span.
            span = obs.begin("2pc.prepare", category="protocol",
                             track="coordinator", parent=("xp", xid),
                             key=("txn", f"{xid}.p{partition_id}"),
                             labels={"partition": partition_id,
                                     "delegate": delegate})
        try:
            group = self.cluster.group(partition_id)
            if not group.node(delegate).is_up:
                return None
            database = group.database(delegate)
            transaction = database.begin(branch, delegate=delegate,
                                         txn_id=f"{xid}.p{partition_id}")
            try:
                for operation in branch.operations:
                    if operation.is_read:
                        yield from database.read(transaction, operation.key,
                                                 use_lock=False)
                    else:
                        database.stage_write(transaction, operation.key,
                                             operation.value)
            except Exception:
                # Any local failure during prepare is simply a no-vote;
                # raising here would tear down the coordinator instead of
                # aborting.
                return None
            return transaction
        finally:
            if span is not None:
                obs.end(span)

    def _commit_branch(self, partition_id: int, delegate: str,
                       transaction: Transaction, xid: str,
                       branch_outcome: BranchOutcome,
                       home_node=None):
        """Generator: drive the branch's write set to commit on its group.

        The global decision is already logged, so this *must* succeed: local
        aborts (deadlocks between concurrent commit branches on a lazy
        partition, delegate crashes) are retried, switching to another group
        member when the delegate is down, and a whole-group outage blocks the
        branch until a member recovers — the classic blocking behaviour of
        2PC.  Decided writes are never dropped; the client response is simply
        delayed until every branch is durable.  The update-only program is
        idempotent — it installs the same values on every attempt — so an
        at-least-once retry cannot violate atomicity.

        ``home_node`` ties the coordinator's fate to its home delegate: if
        that node crashes the branch stands down (the coordinator is dead)
        and decision replay resumes the install on recovery.  Replay-driven
        installs pass ``home_node=None`` — they answer to nobody but the
        durable decision record.
        """
        group = self.cluster.group(partition_id)
        write_operations = tuple(
            Operation(OperationType.WRITE, key, value)
            for key, value in transaction.write_values.items())
        server = delegate
        attempt = 0
        obs = self.sim.obs
        span = None
        if obs is not None:
            span = obs.begin("2pc.commit-branch", category="protocol",
                             track="coordinator", parent=("xp", xid),
                             labels={"partition": partition_id})
        try:
            yield from self._drive_branch(
                group, partition_id, server, write_operations, transaction,
                xid, branch_outcome, home_node, attempt)
        finally:
            if span is not None:
                obs.end(span, labels={"committed": branch_outcome.committed,
                                      "in_doubt": branch_outcome.in_doubt})

    def _drive_branch(self, group, partition_id: int, server: str,
                      write_operations, transaction: Transaction, xid: str,
                      branch_outcome: BranchOutcome, home_node, attempt: int):
        """Generator: the retry loop of :meth:`_commit_branch`."""
        while True:
            if home_node is not None:
                pending = self.decided_pending.get(xid)
                if pending is not None and pending.resuming:
                    # A replay pass owns this transaction now.
                    return
                if home_node.is_crashed:
                    # The coordinator died with its home delegate; the
                    # durable decision record takes over via replay.
                    return
            attempt += 1
            backoff = min(RETRY_BACKOFF_MS * attempt, MAX_RETRY_BACKOFF_MS)
            if not group.node(server).is_up:
                up_servers = group.up_servers()
                if not up_servers:
                    # The whole group is down; wait for a recovery — the
                    # decision is durable, the branch is in doubt until a
                    # member comes back.
                    if not branch_outcome.in_doubt:
                        branch_outcome.in_doubt = True
                        self.in_doubt_branches += 1
                    yield self.sim.timeout(backoff)
                    continue
                server = up_servers[0]
            if branch_outcome.in_doubt:
                branch_outcome.in_doubt = False
                self.in_doubt_branches -= 1
            program = TransactionProgram(operations=write_operations,
                                         client=f"xp.{xid}")
            try:
                result = yield self.cluster.submit_to_group(
                    partition_id, program, server=server)
            except RuntimeError:
                # The chosen server stopped between the check and the submit.
                yield self.sim.timeout(backoff)
                continue
            # Every attempt — including crash/deadlock aborts that will be
            # retried — is internal 2PC work, never a fast-path result.
            self.branch_txn_ids.add(result.txn_id)
            if result.committed:
                branch_outcome.committed = True
                branch_outcome.txn_id = result.txn_id
                return
            yield self.sim.timeout(backoff)

    # ------------------------------------------------------------------ decision replay
    def replay_decisions(self, partition_id: int, server: str) -> int:
        """Resume phase 2 for durable decisions found on a recovered server.

        Scans the server's stable write-ahead log for ``DECISION`` records.
        A decided-but-unfinished transaction gets its remaining branches
        re-driven to commit (resolving any in-doubt state) and its client
        finally answered; a decision whose client already saw an abort is
        counted as an orphan and left aborted — nothing was installed during
        prepare, so the abort answer was truthful.  Returns the number of
        transactions resumed.
        """
        database = self.cluster.group(partition_id).database(server)
        resumed = 0
        for record in database.wal.stable_records():
            if record.record_type is not LogRecordType.DECISION:
                continue
            xid = record.txn_id
            pending = self.decided_pending.get(xid)
            if pending is None:
                outcome = next((outcome for outcome in self.outcomes
                                if outcome.xid == xid), None)
                if (outcome is not None and not outcome.committed
                        and xid not in self._orphan_xids):
                    self._orphan_xids.add(xid)
                    self.orphan_decisions += 1
                continue
            if pending.resuming:
                continue
            pending.resuming = True
            resumed += 1
            self.sim.spawn(self._resume_decided(pending),
                           name=f"xp.replay.{xid}")
        return resumed

    def _resume_decided(self, pending: _PendingDecision):
        """Generator: finish phase 2 of a replayed decision and answer."""
        outcome = pending.outcome
        for partition_id, transaction in pending.transactions.items():
            branch = outcome.branch(partition_id)
            if branch.committed:
                continue
            if not transaction.write_values:
                branch.committed = True
                continue
            yield from self._commit_branch(
                partition_id, pending.delegates[partition_id], transaction,
                pending.xid, branch, home_node=None)
        self._finish(outcome, None, pending.response_event)

    # ------------------------------------------------------------------ bookkeeping
    def _finish(self, outcome: CrossPartitionOutcome, reason: Optional[str],
                response_event: Event) -> None:
        self.active_installs.pop(outcome.xid, None)
        self.decided_pending.pop(outcome.xid, None)
        outcome.committed = reason is None and all(
            branch.committed for branch in outcome.branches)
        if reason is None and not outcome.committed:
            # Defensive: phase 2 retries until every branch commits, so this
            # only triggers if a branch generator is changed to give up.
            reason = next((branch.abort_reason for branch in outcome.branches
                           if branch.abort_reason), "xpartition-in-doubt")
        outcome.abort_reason = reason
        outcome.responded_at = self.sim.now
        self.outcomes.append(outcome)
        if outcome.committed:
            self.committed_count += 1
        else:
            self.aborted_count += 1
            if reason == ABORT_WRONG_EPOCH:
                self.wrong_epoch_aborts += 1
        obs = self.sim.obs
        if obs is not None:
            obs.end_key(("xp", outcome.xid),
                        labels={"committed": outcome.committed,
                                "abort_reason": outcome.abort_reason or ""})
        if not response_event.triggered:
            response_event.succeed(outcome)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<CrossPartitionCoordinator committed={self.committed_count} "
                f"aborted={self.aborted_count}>")
