"""A-delivery as a process: the reference model of the served delivery queue.

This is the loop ``src/repro/gcs/total_order.py`` shipped until the engine
served its ordered messages (:meth:`repro.network.node.Node.serve`) — a
volatile process parked on ``_ready.get()`` that charges the delivery to the
CPU, logs it through the end-to-end journal (a CPU charge for the I/O, then
the disk) and hands it upward — kept as the obviously-correct model the
property test in ``tests/test_properties.py`` drives side by side with the
real endpoint.  It pays one kernel event more per delivery (the zero-delay
``get`` hand-off) and a bootstrap per start.  One wart is kept as it was:
the delivery cost is read once, when the endpoint is built, so a later
``Node.degrade_cpu`` does not reach it.
"""

from __future__ import annotations

from repro.gcs import FixedSequencerEngine
from repro.gcs.total_order import Delivery


class ProcessDeliveryEngine(FixedSequencerEngine):
    """A fixed-sequencer endpoint whose A-deliveries go through a process."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delivery_cpu_time = self.node.cpu_time_per_network_op

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.rb.start()
        self.node.spawn(self._delivery_loop(), name="abcast.delivery")

    def _delivery_loop(self):
        while True:
            sequence, entry, replayed = yield self._ready.get()
            if self.delivery_cpu_time:
                yield self.node.cpu.use(self.delivery_cpu_time)
            journal = self.journal
            if journal is not None:
                if journal.log_time:
                    yield self.node.cpu.use(self.node.cpu_time_per_io)
                    yield self.node.disk.use(journal.log_time)
                journal.record_delivery(sequence, entry.broadcast_id,
                                        entry.payload)
            delivery = Delivery(payload=entry.payload,
                                broadcast_id=entry.broadcast_id,
                                sequence=sequence, delivered_at=self.sim.now,
                                member=self.member_name, replayed=replayed)
            self.delivered_count += 1
            self.deliveries.put(delivery)
