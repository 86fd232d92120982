"""Common machinery of all replica servers.

A :class:`ReplicaServer` is the *replicated database component* of one server
(Fig. 1 of the paper): it owns the local database component, talks to the
group-communication component (for the techniques that use one) and to the
clients.  Subclasses implement the individual replication techniques; this
base class provides what they all share — submission plumbing, client
responses, background flushers, crash bookkeeping and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.layers import implements, uses
from ..db.engine import LocalDatabase
from ..db.operations import TransactionProgram
from ..db.transaction import Transaction
from ..network.dispatch import Dispatcher
from ..network.node import Node
from ..sim.engine import Simulator
from ..sim.events import Event
from ..sim.resources import Gate
from ..workload.params import SimulationParameters
from .results import TransactionResult

#: Interval of the background WAL group-commit flusher (ms).
LOG_FLUSH_INTERVAL = 50.0

#: Interval of the buffer pool write-behind flusher (ms).
WRITE_BEHIND_INTERVAL = 50.0


@dataclass
class PendingSubmission:
    """Book-keeping for a transaction whose client is waiting for an answer."""

    transaction: Transaction
    response_event: Event
    submitted_at: float
    responded: bool = False


@implements("replication")
@uses("links")
class ReplicaServer:
    """Base class of every replication technique's per-server logic."""

    #: Human-readable technique name, overridden by subclasses.
    technique_name = "base"

    def __init__(self, sim: Simulator, node: Node, database: LocalDatabase,
                 dispatcher: Dispatcher, params: SimulationParameters) -> None:
        self.sim = sim
        self.node = node
        self.db = database
        self.dispatcher = dispatcher
        self.params = params
        #: Gate the processing stage waits on before handling each delivered
        #: transaction.  Failure-injection scenarios close it to freeze a
        #: server between *delivery* and *processing* — the window the paper's
        #: Fig. 5 argument is about.
        self.processing_gate = Gate(sim, opened=True,
                                    name=f"{node.name}.processing")
        self._pending: Dict[str, PendingSubmission] = {}
        #: Every result this server has sent back to a client.
        self.results: List[TransactionResult] = []
        self._running = False
        node.add_listener(self._on_node_event)

    # ------------------------------------------------------------------ identity
    @property
    def name(self) -> str:
        """The server's name (same as its node's name)."""
        return self.node.name

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the server's processes (dispatcher, flushers, technique loops)."""
        if self._running:
            return
        self._running = True
        if not self.dispatcher.is_running:
            self.dispatcher.start()
        self.node.spawn(self._log_flusher(), name="wal.group_commit")
        self.db.buffer.start_write_behind(interval=WRITE_BEHIND_INTERVAL)
        self._start_technique()

    def _start_technique(self) -> None:
        """Hook: subclasses start their protocol-specific processes here."""

    def _log_flusher(self):
        """Background group-commit flusher for asynchronously logged records."""
        while True:
            yield self.sim.timeout(LOG_FLUSH_INTERVAL)
            if self.db.wal.volatile_records():
                yield from self.db.wal.flush()

    def _on_node_event(self, node: Node, event: str) -> None:
        if event == "crash":
            self._running = False
            self._fail_pending("delegate-crash")

    def _fail_pending(self, reason: str) -> None:
        """Answer every waiting client with an abort when the server crashes."""
        obs = self.sim.obs
        for pending in list(self._pending.values()):
            if pending.responded:
                continue
            pending.responded = True
            result = TransactionResult(
                txn_id=pending.transaction.txn_id, committed=False,
                delegate=self.name, submitted_at=pending.submitted_at,
                responded_at=self.sim.now, abort_reason=reason,
                technique=self.technique_name)
            self.results.append(result)
            if obs is not None:
                obs.end_key(("txn", result.txn_id),
                            labels={"committed": False,
                                    "abort_reason": reason})
            if not pending.response_event.triggered:
                pending.response_event.succeed(result)
        self._pending.clear()

    # ------------------------------------------------------------------ submission
    def submit(self, program: TransactionProgram) -> Event:
        """Submit ``program`` to this server as its delegate.

        Returns an event that fires with the :class:`TransactionResult` when
        the technique decides to answer the client — *when* that happens is
        exactly what distinguishes the safety levels.
        """
        if not self._running:
            raise RuntimeError(
                f"server {self.name} is not running (crashed or not started)")
        response_event = Event(self.sim)
        transaction = self.db.begin(program, delegate=self.name)
        pending = PendingSubmission(transaction=transaction,
                                    response_event=response_event,
                                    submitted_at=self.sim.now)
        self._pending[transaction.txn_id] = pending
        obs = self.sim.obs
        if obs is not None:
            # The root of the transaction's span tree; children (reads, the
            # abcast order span, apply/log work) link to it by this key.  It
            # shares both endpoints with the PendingSubmission timestamps, so
            # its duration equals the client-visible response time exactly.
            obs.begin("txn", category="txn", track=f"server.{self.name}",
                      key=("txn", transaction.txn_id), root=True,
                      labels={"txn_id": transaction.txn_id,
                              "delegate": self.name,
                              "technique": self.technique_name})
        self.node.spawn(self._execute(pending), name=f"txn.{transaction.txn_id}")
        return response_event

    def _execute(self, pending: PendingSubmission):
        """Generator hook: subclasses implement the delegate-side execution."""
        raise NotImplementedError
        yield  # pragma: no cover

    # ------------------------------------------------------------------ responses
    def respond(self, txn_id: str, committed: bool,
                abort_reason: Optional[str] = None,
                logged_on_delegate: bool = False,
                delivered_to_group: bool = False,
                logged_on_all: bool = False,
                commit_order: Optional[int] = None) -> Optional[TransactionResult]:
        """Send the client response for ``txn_id`` (idempotent)."""
        pending = self._pending.get(txn_id)
        if pending is None or pending.responded:
            return None
        pending.responded = True
        result = TransactionResult(
            txn_id=txn_id, committed=committed, delegate=self.name,
            submitted_at=pending.submitted_at, responded_at=self.sim.now,
            abort_reason=abort_reason,
            logged_on_delegate=logged_on_delegate,
            delivered_to_group=delivered_to_group,
            logged_on_all=logged_on_all,
            technique=self.technique_name, commit_order=commit_order)
        pending.transaction.response_time = result.response_time
        self.results.append(result)
        del self._pending[txn_id]
        obs = self.sim.obs
        if obs is not None:
            obs.end_key(("txn", txn_id),
                        labels={"committed": committed,
                                "abort_reason": abort_reason or ""})
        if not pending.response_event.triggered:
            pending.response_event.succeed(result)
        return result

    def pending_transaction(self, txn_id: str) -> Optional[Transaction]:
        """The delegate-side transaction object for ``txn_id``, if pending."""
        pending = self._pending.get(txn_id)
        return pending.transaction if pending else None

    # ------------------------------------------------------------------ recovery
    def recover_after_crash(self):
        """Generator: bring the server back after its node recovered.

        The base implementation redoes the local write-ahead log and restarts
        the background processes; the database state machine extends it with
        the recovery of its group-communication state (state transfer or
        message replay).  For the lazy techniques this is all there is: with
        no group to consult, whatever was not flushed locally (and not yet
        propagated) is gone — the 1-safe durability hole.  Returns the number
        of transactions whose effects were recovered from the local stable
        storage.
        """
        redone = self.db.recover()
        self._running = False
        self.start()
        return redone
        yield  # pragma: no cover - subclasses turn this into a real generator

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<{type(self).__name__} {self.name} "
                f"responded={len(self.results)}>")
