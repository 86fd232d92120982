"""Group communication component (Sect. 2.3 and 4 of the paper).

The package is a layered protocol stack matching
:data:`repro.core.layers.LAYER_ORDER`: a reliable-broadcast layer over the
LAN, a perfect failure detector, one total-order engine under two leader
policies (fixed sequencer and Multi-Paxos, selected through
:mod:`repro.gcs.engines`),
view-based membership, and the stable message log used for log-based
recovery (handed to an engine as its ``journal``, it makes the broadcast
end-to-end).  An engine moves a checkpoint for state transfer as opaque
state; the application defines what it holds.
"""

from .engines import DEFAULT_ENGINE, ENGINES, engine_names, resolve_engine
from .failure_detector import FailureDetector
from .fixed_sequencer import FixedSequencerEngine
from .membership import GroupMembership, View
from .message_log import GcsMessageLog, LoggedMessage
from .paxos import MultiPaxosEngine
from .reliable_broadcast import ReliableBroadcastLayer
from .system import GroupCommunicationSystem
from .total_order import Delivery, MembershipPort, TotalOrderEngine

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "Delivery",
    "FixedSequencerEngine",
    "GroupCommunicationSystem",
    "GroupMembership",
    "MembershipPort",
    "MultiPaxosEngine",
    "ReliableBroadcastLayer",
    "TotalOrderEngine",
    "View",
    "FailureDetector",
    "GcsMessageLog",
    "LoggedMessage",
    "engine_names",
    "resolve_engine",
]
