"""Lazy replication: the delivered-on-one rows of Table 1 (1-safe, 0-safe).

The baseline the paper compares against in Fig. 9.  The delegate executes the
whole transaction locally under strict two-phase locking, flushes the commit
record to its own stable storage and answers the client; the write sets are
propagated to the other replicas *afterwards*, in periodic batches, outside
the transaction boundary.  The client response therefore only guarantees
1-safety: the transaction is logged on the delegate and nowhere else, so the
crash of that one server can lose it (or force conflicting work to be
discarded when it recovers).

Built with ``SafetyLevel.ZERO_SAFE`` the same replica answers *before* its
log flush — the weakest point of the safety matrix, where a single crash of
the delegate at the wrong moment loses the transaction.  It exists to
populate the "No Safety" cell of Table 1 and the "0 crashes tolerated" row of
Table 2.

Because there is no global coordination, concurrent conflicting updates
submitted at different servers are **not** detected — the replicas may
diverge even without any failure, which is the ACID-violation risk Sect. 7 of
the paper contrasts with group-safe replication.  The propagated write sets
are applied with a last-writer-wins rule per item.
"""

from __future__ import annotations

import itertools
from typing import List

from ..core.layers import implements, uses
from ..core.safety import LoggedOn, SafetyLevel
from ..db.engine import LocalDatabase
from ..db.errors import DeadlockError, TransactionAborted
from ..db.transaction import WriteSetMessage
from ..network.dispatch import Dispatcher
from ..network.lan import Lan
from ..network.message import Message
from ..network.node import Node
from ..sim.engine import Simulator
from ..workload.params import SimulationParameters
from .base import PendingSubmission, ReplicaServer

#: Message kind used for update propagation between lazy replicas.
PROPAGATION_KIND = "LAZY.PROPAGATE"

#: Interval at which accumulated update batches are propagated (ms).
PROPAGATION_INTERVAL = 250.0

#: Cost factor applied to the disk writes of *propagated* write sets relative
#: to delegate-side writes.  Lazy replication applies remote updates in large
#: sequential batches, which is cheaper than the random in-place writes of the
#: originating transaction; this factor is an explicit modelling substitution
#: (the paper gives no figure for it).
PROPAGATION_WRITE_FACTOR = 0.45


@implements("replication")
@uses("links")
class LazyReplica(ReplicaServer):
    """One server of the lazy replication scheme (1-safe or 0-safe)."""

    def __init__(self, sim: Simulator, node: Node, database: LocalDatabase,
                 dispatcher: Dispatcher, params: SimulationParameters,
                 lan: Lan, peer_names: List[str], level: SafetyLevel) -> None:
        super().__init__(sim, node, database, dispatcher, params)
        self.technique_name = level.value
        #: Logged nowhere at notification (0-safe) ⇒ answer the client
        #: before the commit record is flushed.
        self.respond_before_logging = level.logged_on is LoggedOn.NONE
        self.lan = lan
        self.peer_names = [name for name in peer_names if name != node.name]
        self._outgoing: List[WriteSetMessage] = []
        self._local_order = itertools.count(1)
        dispatcher.register(PROPAGATION_KIND, self._on_propagation)
        #: Statistics.
        self.propagated_batches = 0
        self.applied_remote_writesets = 0
        self.deadlock_aborts = 0

    # ------------------------------------------------------------------ lifecycle
    def _start_technique(self) -> None:
        self.node.spawn(self._propagator(), name="lazy.propagator")

    # ------------------------------------------------------------------ delegate side
    def _execute(self, pending: PendingSubmission):
        """Execute the transaction locally under 2PL, then answer the client."""
        transaction = pending.transaction
        try:
            for operation in transaction.program.operations:
                if operation.is_read:
                    yield from self.db.read(transaction, operation.key,
                                            use_lock=True)
                else:
                    yield from self.db.write_locked(transaction, operation.key,
                                                    operation.value)
        except (DeadlockError, TransactionAborted) as error:
            self.deadlock_aborts += 1
            self.db.finalize_abort(transaction, getattr(error, "reason", "deadlock"))
            self.respond(transaction.txn_id, committed=False,
                         abort_reason=getattr(error, "reason", "deadlock"))
            return

        payload = transaction.certification_payload()
        commit_order = next(self._local_order)
        if transaction.write_values:
            self.db.install_writes(payload, commit_order=commit_order)

        if self.respond_before_logging:
            # 0-safe: the client is told before anything is durable anywhere.
            self.respond(transaction.txn_id, committed=True,
                         logged_on_delegate=False, delivered_to_group=False,
                         commit_order=commit_order)
            yield from self.db.log_commit(transaction, commit_order,
                                          synchronous=False)
            self.db.finalize_commit(transaction, commit_order)
        else:
            # 1-safe: flush the commit record on the delegate, then answer.
            yield from self.db.log_commit(transaction, commit_order,
                                          synchronous=True)
            self.db.finalize_commit(transaction, commit_order)
            self.respond(transaction.txn_id, committed=True,
                         logged_on_delegate=True, delivered_to_group=False,
                         commit_order=commit_order)

        if transaction.write_values:
            self._outgoing.append(payload)

    # ------------------------------------------------------------------ propagation
    def _propagator(self):
        """Ship accumulated write sets to the other replicas periodically."""
        while True:
            yield self.sim.timeout(PROPAGATION_INTERVAL)
            if not self._outgoing:
                continue
            batch, self._outgoing = self._outgoing, []
            self.propagated_batches += 1
            for peer in self.peer_names:
                yield self.node.cpu.use(self.node.cpu_time_per_network_op)
                self.lan.send(Message(sender=self.name, destination=peer,
                                      kind=PROPAGATION_KIND, payload=batch))

    def _on_propagation(self, message: Message) -> None:
        self.node.spawn(self._apply_propagated(list(message.payload)),
                        name="lazy.apply")

    def _apply_propagated(self, batch: List[WriteSetMessage]):
        """Apply a batch of remote write sets (cheap, sequential, batched I/O)."""
        write_stream = self.sim.random.stream(f"{self.name}.propagated_write")
        for payload in batch:
            if self.db.testable.check_duplicate(payload.txn_id):
                continue
            yield self.processing_gate.wait()
            commit_order = next(self._local_order)
            self.db.install_writes(payload, commit_order=commit_order)
            self.applied_remote_writesets += 1
            for key in payload.write_set:
                yield self.node.cpu.use(self.node.cpu_time_per_io)
                duration = PROPAGATION_WRITE_FACTOR * write_stream.uniform(
                    self.params.write_time_min, self.params.write_time_max)
                if duration > 0:
                    yield self.node.disk.use(duration)
            self.db.wal.append_commit(payload.txn_id, payload.write_values,
                                      commit_order=commit_order)
            self.db.testable.record_commit(payload.txn_id, commit_order)
            self.db.committed_count += 1
        # One group flush per propagated batch: the receiving replica logs the
        # whole batch with a single sequential write.
        yield from self.db.wal.flush()
