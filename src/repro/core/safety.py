"""Safety levels for replicated databases.

The paper organises safety guarantees along two axes (Table 1):

* on how many replicas is the **message carrying the transaction guaranteed
  to be delivered** when the client is notified — one (the delegate) or all
  available servers;
* on how many replicas is the transaction **guaranteed to be logged** (and
  hence will eventually commit) at that moment — none, one, or all available
  servers.

Crossing the two axes yields the five meaningful levels below plus the
classical *very safe* criterion (logged on *all* servers, available or not),
which the paper mentions and dismisses as impractical.  :func:`classify`
derives the level from the two axis values, which is exactly how Table 1 is
generated in :mod:`repro.core.matrix`.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional


class DeliveredOn(Enum):
    """How many replicas are guaranteed to receive the transaction's message."""

    ONE = "one replica"
    ALL = "all replicas"


class LoggedOn(Enum):
    """How many replicas are guaranteed to have logged the transaction."""

    NONE = "no replica"
    ONE = "one replica"
    ALL = "all replicas"


class SafetyLevel(Enum):
    """The safety levels of the paper, ordered from weakest to strongest."""

    ZERO_SAFE = "0-safe"
    ONE_SAFE = "1-safe"
    GROUP_SAFE = "group-safe"
    GROUP_ONE_SAFE = "group-1-safe"
    TWO_SAFE = "2-safe"
    VERY_SAFE = "very safe"

    # -- axis positions (Table 1) -------------------------------------------------
    @property
    def delivered_on(self) -> DeliveredOn:
        """The delivery-guarantee axis value of the level (Table 1 rows)."""
        if self in (SafetyLevel.ZERO_SAFE, SafetyLevel.ONE_SAFE):
            return DeliveredOn.ONE
        return DeliveredOn.ALL

    @property
    def logged_on(self) -> LoggedOn:
        """The logging-guarantee axis value of the level (Table 1 columns)."""
        if self in (SafetyLevel.ZERO_SAFE, SafetyLevel.GROUP_SAFE):
            return LoggedOn.NONE
        if self in (SafetyLevel.ONE_SAFE, SafetyLevel.GROUP_ONE_SAFE):
            return LoggedOn.ONE
        return LoggedOn.ALL

    # -- crash tolerance (Table 2) -----------------------------------------------------
    def tolerated_crashes(self, group_size: int) -> int:
        """Number of simultaneous server crashes the level tolerates.

        "Tolerates" means: no transaction whose commit was confirmed to a
        client can be lost, provided no more than the returned number of
        servers crash (Table 2 of the paper).
        """
        if group_size < 1:
            raise ValueError("group size must be positive")
        if self in (SafetyLevel.ZERO_SAFE, SafetyLevel.ONE_SAFE):
            return 0
        if self in (SafetyLevel.GROUP_SAFE, SafetyLevel.GROUP_ONE_SAFE):
            return group_size - 1
        return group_size

    def __str__(self) -> str:
        return self.value


def classify(delivered_on: DeliveredOn, logged_on: LoggedOn
             ) -> Optional[SafetyLevel]:
    """Derive the safety level from the two Table 1 axes.

    Returns ``None`` for the impossible combination (a transaction cannot be
    logged on all replicas while only guaranteed to be delivered on one —
    the greyed-out cell of Table 1).
    """
    if delivered_on is DeliveredOn.ONE:
        if logged_on is LoggedOn.NONE:
            return SafetyLevel.ZERO_SAFE
        if logged_on is LoggedOn.ONE:
            return SafetyLevel.ONE_SAFE
        return None
    if logged_on is LoggedOn.NONE:
        return SafetyLevel.GROUP_SAFE
    if logged_on is LoggedOn.ONE:
        return SafetyLevel.GROUP_ONE_SAFE
    return SafetyLevel.TWO_SAFE


def classify_notification(delivered_to_group: bool, logged_on_delegate: bool,
                          logged_on_all: bool = False) -> SafetyLevel:
    """Classify a single client notification from its recorded guarantees.

    This is the runtime counterpart of :func:`classify`: replica servers
    record on every :class:`~repro.replication.results.TransactionResult`
    what was guaranteed at the moment the client was answered, and the audit
    maps those flags back to a safety level.
    """
    delivered = DeliveredOn.ALL if delivered_to_group else DeliveredOn.ONE
    if logged_on_all:
        logged = LoggedOn.ALL
    elif logged_on_delegate:
        logged = LoggedOn.ONE
    else:
        logged = LoggedOn.NONE
    level = classify(delivered, logged)
    if level is None:
        # logged everywhere but only delivered at the delegate cannot happen
        # at runtime; be conservative and report the strongest coherent level.
        return SafetyLevel.ONE_SAFE
    return level
