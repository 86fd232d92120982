"""Client-visible transaction outcomes.

A :class:`TransactionResult` is what a client receives when its transaction
terminates.  Besides the outcome it records the timestamps needed by the
experiments (response time is the Fig. 9 metric) and — crucially for the
safety analysis — *what was guaranteed at the moment the client was
notified*: whether the transaction was logged on the delegate, whether the
message carrying it was stable in the group, and so on.  The safety audit in
:mod:`repro.core` classifies results into the paper's safety levels from
exactly this information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..core.stats import percentile as _shared_percentile


@dataclass
class TransactionResult:
    """Outcome of one transaction as observed by the submitting client."""

    txn_id: str
    committed: bool
    delegate: str
    submitted_at: float
    responded_at: float
    abort_reason: Optional[str] = None
    #: True if the commit record had reached the delegate's stable storage
    #: when the client was notified (the "logged on one replica" axis of
    #: Table 1).
    logged_on_delegate: bool = False
    #: True if the atomic broadcast had made the transaction's message stable
    #: (guaranteed to be delivered on all available servers) when the client
    #: was notified (the "delivered on all replicas" axis of Table 1).
    delivered_to_group: bool = False
    #: True if the transaction was guaranteed logged on every available
    #: server when the client was notified (only the very-safe / strict
    #: 2-safe variants set this).
    logged_on_all: bool = False
    #: Name of the replication technique that produced the result.
    technique: str = ""
    commit_order: Optional[int] = None

    @property
    def response_time(self) -> float:
        """Client-observed response time in milliseconds."""
        return self.responded_at - self.submitted_at

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        outcome = "commit" if self.committed else f"abort({self.abort_reason})"
        return (f"<TransactionResult {self.txn_id} {outcome} "
                f"rt={self.response_time:.1f}ms>")


@dataclass
class RunStatistics:
    """The answers submitted inside one measurement window, summarised.

    Sect. 6 judges a technique by the mean response time of its committed
    transactions and by its abort rate over a measured window (Fig. 9).
    """

    measured_commits: int = 0
    measured_aborts: int = 0
    response_times: List[float] = field(default_factory=list)
    abort_reasons: Dict[str, int] = field(default_factory=dict)
    simulated_duration_ms: float = 0.0

    @classmethod
    def of(cls, answers: Iterable[Any], start_ms: float,
           end_ms: float) -> "RunStatistics":
        """Summarise the ``answers`` submitted in ``[start_ms, end_ms)``.

        An answer is a :class:`TransactionResult` or a cross-partition
        outcome; both carry ``committed``, ``submitted_at``,
        ``response_time`` and ``abort_reason``.
        """
        stats = cls(simulated_duration_ms=end_ms - start_ms)
        for answer in answers:
            if not start_ms <= answer.submitted_at < end_ms:
                continue
            if answer.committed:
                stats.measured_commits += 1
                stats.response_times.append(answer.response_time)
            else:
                stats.measured_aborts += 1
                reason = answer.abort_reason or "unknown"
                stats.abort_reasons[reason] = \
                    stats.abort_reasons.get(reason, 0) + 1
        return stats

    @property
    def mean_response_time(self) -> float:
        """Mean response time of committed transactions (ms)."""
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)

    @property
    def abort_rate(self) -> float:
        """Fraction of terminated transactions that aborted."""
        total = self.measured_commits + self.measured_aborts
        return self.measured_aborts / total if total else 0.0

    @property
    def achieved_throughput_tps(self) -> float:
        """Committed transactions per second of simulated time."""
        if self.simulated_duration_ms <= 0:
            return 0.0
        return self.measured_commits / (self.simulated_duration_ms / 1000.0)

    def percentile(self, fraction: float) -> float:
        """Response-time percentile (linear interpolation).

        ``fraction`` must lie in ``[0, 1]``; an empty sample yields 0.0.
        """
        return _shared_percentile(self.response_times, fraction)
