"""The database state machine replication technique.

This is the paper's representative group-communication-based technique
(Sect. 2.1): *update everywhere, non-voting, single network interaction*.
The delegate executes the transaction's reads locally, broadcasts the
read-versions + write-set with the atomic broadcast, and every server
certifies and applies the write set in delivery order.  Conflict detection is
deterministic, so all servers take the same commit/abort decision without any
voting phase.

The same machine runs the three delivered-on-all rows of Table 1, selected by
the :class:`~repro.core.safety.SafetyLevel` it is built with; the differences
are *only* about when the client is answered and which disk writes are
synchronous — exactly the knobs the paper turns between Fig. 2
(group-1-safe), Fig. 8 (group-safe) and Sect. 4.3 (2-safe on end-to-end
atomic broadcast):

==================  =========================================================
level               client answered after ...
==================  =========================================================
``GROUP_SAFE``      the delegate delivers the transaction and knows the
                    commit/abort decision.  The message is held by the group
                    but may be logged nowhere: durability is entrusted to the
                    *group*, all disk writes happen asynchronously, outside
                    the transaction boundary — the technique's performance
                    advantage (Sect. 6)
``GROUP_ONE_SAFE``  the delegate has additionally applied the writes and
                    flushed the commit record to its own stable storage —
                    what most group-communication-based protocols provide
                    (Sect. 5.1).  Sect. 5.2 argues the synchronous logging
                    buys little in an update-everywhere setting; Sect. 6
                    shows its price: the delegate's disks are on the
                    critical path, so this curve of Fig. 9 degrades fastest
``TWO_SAFE``        same as group-1-safe, but over *end-to-end* atomic
                    broadcast (Sect. 4.2, Fig. 7): the group-communication
                    component logs deliveries and replays unacknowledged
                    messages after a crash, the replica acknowledges once
                    the transaction is logged, and testable transactions
                    make commits exactly-once — no committed transaction can
                    be lost even if every server crashes.  Impossible on
                    classical atomic broadcast (Sect. 3): a delivery
                    guarantees nothing about processing, and nobody ever
                    presents a delivered message again
==================  =========================================================
"""

from __future__ import annotations

from ..core.layers import implements, uses
from ..core.safety import LoggedOn, SafetyLevel
from ..db.engine import LocalDatabase
from ..db.operations import OperationType
from ..db.transaction import TransactionStatus, WriteSetMessage
from ..gcs.total_order import Delivery, TotalOrderEngine
from ..gcs.state_transfer import install_checkpoint, take_checkpoint
from ..network.dispatch import Dispatcher
from ..network.node import Node
from ..sim.engine import Simulator
from ..workload.params import SimulationParameters
from .base import PendingSubmission, ReplicaServer


@implements("replication")
@uses("total_order")
class DatabaseStateMachineReplica(ReplicaServer):
    """One server running the database state machine technique."""

    def __init__(self, sim: Simulator, node: Node, database: LocalDatabase,
                 dispatcher: Dispatcher, params: SimulationParameters,
                 endpoint: TotalOrderEngine, level: SafetyLevel) -> None:
        super().__init__(sim, node, database, dispatcher, params)
        self.endpoint = endpoint
        self.technique_name = level.value
        #: The one decision of the level (Fig. 2 vs Fig. 8): logged on some
        #: replica at notification ⇒ the delegate applies and logs
        #: synchronously and answers after its flush; otherwise it answers
        #: at delivery and every disk write is asynchronous.
        self.responds_after_logging = level.logged_on is not LoggedOn.NONE
        self.logged_on_all = level.logged_on is LoggedOn.ALL
        endpoint.checkpoint_provider = self._take_checkpoint
        #: Statistics.
        self.certified_count = 0
        self.certification_abort_count = 0
        self.duplicate_deliveries = 0

    # ------------------------------------------------------------------ lifecycle
    def _start_technique(self) -> None:
        self.endpoint.start()
        self.node.spawn(self._certifier(), name="dbsm.certifier")

    def _take_checkpoint(self):
        return take_checkpoint(self.db, self.sim.now, source=self.name)

    # ------------------------------------------------------------------ delegate side
    def _execute(self, pending: PendingSubmission):
        """Delegate-side execution: read phase, then broadcast (Fig. 2 / Fig. 8)."""
        transaction = pending.transaction
        read_type = OperationType.READ
        db = self.db
        for operation in transaction.program.operations:
            if operation.op_type is read_type:
                yield from db.read(transaction, operation.key, use_lock=False)
            else:
                db.stage_write(transaction, operation.key, operation.value)

        if not transaction.write_values:
            # Read-only transaction: no broadcast needed (Sect. 2.1), it
            # commits locally on the delegate.
            self.db.finalize_commit(transaction, commit_order=None)
            self.respond(transaction.txn_id, committed=True,
                         logged_on_delegate=False, delivered_to_group=False)
            return

        transaction.set_status(TransactionStatus.BROADCAST)
        transaction.broadcast_time = self.sim.now
        payload = transaction.certification_payload()
        self.endpoint.broadcast(payload)
        obs = self.sim.obs
        if obs is not None:
            # Broadcast-to-delivery of the total order; ended by the
            # *delegate's* certifier when the decision arrives back.
            obs.begin("abcast.order", category="network",
                      track=f"server.{self.name}",
                      parent=("txn", transaction.txn_id),
                      key=("order", transaction.txn_id))
        # The response is produced by the certifier when the transaction is
        # delivered back in total order.

    # ------------------------------------------------------------------ all replicas
    def _certifier(self):
        """Process deliveries in total order: certify, decide, apply."""
        while True:
            delivery: Delivery = yield self.endpoint.deliveries.get()
            yield self.processing_gate.wait()
            # Back-pressure: installing the writes of this delivery needs room
            # in the write cache.  Under overload this is what couples the
            # certification stage to the disks and makes the group-based
            # curves of Fig. 9 turn upward.
            yield self.db.buffer.wait_for_space()
            payload: WriteSetMessage = delivery.payload
            if self.db.testable.check_duplicate(payload.txn_id):
                # Replayed message (end-to-end recovery) for a transaction we
                # already decided: acknowledge and move on — the testable
                # transaction mechanism gives exactly-once commits.
                self.duplicate_deliveries += 1
                self.endpoint.acknowledge(delivery)
                continue
            committed = self.db.certify(payload)
            self.certified_count += 1
            if committed:
                commit_order = self.db.install_writes(payload)
                self._handle_commit(payload, delivery, commit_order)
            else:
                self.certification_abort_count += 1
                self._handle_abort(payload, delivery)

    def _handle_commit(self, payload: WriteSetMessage, delivery: Delivery,
                       commit_order: int) -> None:
        is_delegate = payload.delegate == self.name
        transaction = self.pending_transaction(payload.txn_id)
        if is_delegate:
            obs = self.sim.obs
            if obs is not None:
                # Only the delegate ends the order span: every server's
                # certifier sees this delivery, at different times.
                obs.end_key(("order", payload.txn_id))

        if is_delegate and not self.responds_after_logging:
            # Fig. 8: answer as soon as the decision is known; disk writes
            # happen asynchronously, outside the transaction boundary.
            self.respond(payload.txn_id, committed=True,
                         delivered_to_group=True, logged_on_delegate=False,
                         commit_order=commit_order)

        self.node.spawn(
            self._apply(payload, delivery, commit_order, is_delegate,
                        transaction),
            name=f"apply.{payload.txn_id}")

    def _apply(self, payload: WriteSetMessage, delivery: Delivery,
               commit_order: int, is_delegate: bool, transaction):
        """Apply the certified write set and log the decision."""
        synchronous = self.responds_after_logging
        obs = self.sim.obs
        span = None
        if obs is not None and is_delegate:
            # Delegate-side apply + commit logging.  For the levels that
            # respond after logging this sits on the commit critical path;
            # for group-safe it falls outside the root span and is clipped.
            span = obs.begin("dbsm.apply", category="disk",
                             track=f"server.{self.name}",
                             parent=("txn", payload.txn_id),
                             labels={"synchronous": synchronous})
        try:
            yield from self.db.apply_physical_writes(payload.write_set,
                                                     synchronous=synchronous)
            yield from self.db.log_commit(payload, commit_order,
                                          synchronous=synchronous)
        finally:
            if span is not None:
                obs.end(span)
        self.endpoint.acknowledge(delivery)
        if transaction is not None:
            self.db.finalize_commit(transaction, commit_order)
        else:
            self.db.testable.record_commit(payload.txn_id, commit_order)
            self.db.committed_count += 1
        if is_delegate and self.responds_after_logging:
            # With end-to-end atomic broadcast the delivery is logged by the
            # group-communication component on every server and replayed
            # until successfully processed, so at notification time the
            # transaction is guaranteed to (eventually) be logged on every
            # available server — the 2-safe guarantee of Sect. 4.3.
            self.respond(payload.txn_id, committed=True,
                         delivered_to_group=True, logged_on_delegate=True,
                         logged_on_all=self.logged_on_all,
                         commit_order=commit_order)

    def _handle_abort(self, payload: WriteSetMessage, delivery: Delivery) -> None:
        if payload.delegate == self.name:
            obs = self.sim.obs
            if obs is not None:
                obs.end_key(("order", payload.txn_id))
        transaction = self.pending_transaction(payload.txn_id)
        if transaction is not None:
            self.db.finalize_abort(transaction, "certification")
        else:
            self.db.testable.record_abort(payload.txn_id, "certification")
            self.db.aborted_count += 1
            self.db.certification_aborts += 1
        self.endpoint.acknowledge(delivery)
        self.db.wal.append_abort(payload.txn_id)
        if payload.delegate == self.name:
            self.respond(payload.txn_id, committed=False,
                         abort_reason="certification",
                         delivered_to_group=True)

    # ------------------------------------------------------------------ recovery
    def recover_after_crash(self, rejoin_timeout: float = 10.0):
        """Generator: technique-specific recovery after the node came back.

        * The local database is rebuilt from the flushed write-ahead log.
        * The group-communication endpoint recovers: with classical atomic
          broadcast this is a rejoin plus state transfer (checkpoint-based,
          Sect. 2.3); with end-to-end atomic broadcast it replays
          unacknowledged messages (log-based, Sect. 4.2).
        * The background and certifier processes are restarted — the restarted
          certifier is what processes any replayed deliveries.
        """
        self.db.recover()
        outcome = yield from self.endpoint.recover(rejoin_timeout=rejoin_timeout)
        if outcome is not None and not isinstance(outcome, int):
            # Classical atomic broadcast handed us an application checkpoint
            # from a live member: adopt it wholesale (state transfer).  Any
            # local commit unknown to the group is discarded — this is the
            # 1-safe transaction-loss behaviour discussed in Sect. 5.1.
            install_checkpoint(self.db, outcome)
        self._running = False
        self.start()
        return outcome
