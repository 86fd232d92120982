"""Group communication component (Sect. 2.3 and 4 of the paper).

The package is a layered protocol stack matching
:data:`repro.core.layers.LAYER_ORDER`: a reliable-broadcast layer over the
LAN, a perfect failure detector, pluggable total-order engines (fixed
sequencer and Multi-Paxos, selected through :mod:`repro.gcs.engines`),
view-based membership, the stable message log used for log-based recovery
(handed to an engine as its ``journal``, it makes the broadcast end-to-end),
and checkpoint-based state transfer.
"""

from .engines import (DEFAULT_ENGINE, BroadcastEngineSpec, engine_names,
                      register_engine, resolve_engine)
from .failure_detector import FailureDetector
from .fixed_sequencer import FixedSequencerEngine
from .membership import GroupMembership, View
from .message_log import GcsMessageLog, LoggedMessage
from .paxos import MultiPaxosEngine
from .reliable_broadcast import ReliableBroadcastLayer
from .spec import (ATOMIC_BROADCAST_PROPERTIES, END_TO_END_PROPERTIES,
                   BroadcastProperty, BroadcastTrace, DeliveryRecord,
                   GroupModel, ProcessClass, classify_process)
from .state_transfer import (ApplicationCheckpoint, install_checkpoint,
                             take_checkpoint)
from .system import GroupCommunicationSystem
from .total_order import Delivery, MembershipPort, TotalOrderEngine

__all__ = [
    "BroadcastEngineSpec",
    "DEFAULT_ENGINE",
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
    "ApplicationCheckpoint",
    "take_checkpoint",
    "install_checkpoint",
    "ProcessClass",
    "classify_process",
    "GroupModel",
    "BroadcastProperty",
    "BroadcastTrace",
    "DeliveryRecord",
    "ATOMIC_BROADCAST_PROPERTIES",
    "END_TO_END_PROPERTIES",
    "engine_names",
    "register_engine",
    "resolve_engine",
]
