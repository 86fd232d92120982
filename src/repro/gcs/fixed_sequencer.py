"""The fixed-sequencer leader policy (the classical LAN scheme).

The ordering protocol is :mod:`repro.gcs.total_order`'s; this policy makes
the leader the *sequencer*, the first member of the current view, and keeps
the seed's message kinds.  A failure-free broadcast runs the seed's
schedule, bit for bit, and the golden-digest tests pin it:

1. the sender ships ``DATA(m)`` to the sequencer;
2. the sequencer assigns the next global sequence number and ships
   ``SEQ(seq, m)`` to every view member (including itself);
3. every member keeps the entry and acknowledges with ``ACK(seq, held)``:
   ``held`` is the highest sequence it holds with every one below it, so
   ACKs are cumulative;
4. once a quorum (majority of the static group) holds ``seq``, the
   sequencer ships ``STABLE(up_to=seq)`` once, and members A-deliver in
   sequence order up to it.

One A-broadcast in a crash-free view of N members therefore costs
1 DATA + N SEQ + N ACK + at most N STABLE = at most 3N + 1 messages, as
on Multi-Paxos (``tests/test_gcs_abcast.py`` pins the bill).  Step 4 is
what makes the delivery *uniform*; what the primitive does **not** give —
the crux of the paper — is any guarantee that the application has
*processed* a delivered message.  The end-to-end composition adds it: a
:class:`~repro.gcs.message_log.GcsMessageLog` passed as the engine's
``journal``.

A sequencer's ballot is its tenure.  A takeover is the engine's
collection, under the names ``VC_REQUEST(ballot, from)`` / ``VC_STATE``,
and a member that promised a higher ballot answers a stale one with
``NACK(promised)``: a sequencer that crashed and recovered before the view
dropped it leads the same view again, has lost the ballot it held there,
and without that answer would wait for promises forever.
"""

from __future__ import annotations

from typing import Optional

from ..core.layers import implements, uses
from .total_order import TotalOrderEngine


@implements("total_order")
@uses("reliable_broadcast")
class FixedSequencerEngine(TotalOrderEngine):
    """The group-communication component of one server (fixed sequencer)."""

    KIND_SUBMIT = "ABCAST.DATA"
    KIND_ORDER = "ABCAST.SEQ"
    KIND_ANSWER = "ABCAST.ACK"
    KIND_DECIDE = "ABCAST.STABLE"
    KIND_PREPARE = "ABCAST.VC_REQUEST"
    KIND_PROMISE = "ABCAST.VC_STATE"
    KIND_NACK = "ABCAST.NACK"

    def coordinator(self) -> Optional[str]:
        """The sequencer: the first member of the current view."""
        return self.group.view().primary
