"""Reliability analysis of Sect. 7: lazy vs group-safe as the group grows.

The paper's closing argument is qualitative: with lazy replication the chance
of violating the ACID properties *grows* with the number of servers (more
servers means more concurrently submitted conflicting updates), whereas with
group-safe replication it *shrinks* (the only danger is the failure of the
group, and with independent crash probabilities a larger group is less likely
to lose its quorum).  This module provides the quantitative counterpart used
by the scaling experiment and benchmark:

* :func:`group_failure_probability` — probability that at least a quorum-
  breaking number of servers is simultaneously down, for independent
  per-server unavailability ``p``;
* :func:`lazy_conflict_probability` — probability that, during one
  propagation window, two transactions originating on different servers
  update a common item (the event that makes lazy replication diverge without
  any failure);
* :func:`acid_violation_probability` — the two combined under one interface,
  which is what the Fig. 10-style scaling curves plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List


def _binomial(n: int, k: int) -> float:
    return math.comb(n, k)


def group_failure_probability(server_count: int,
                              server_down_probability: float) -> float:
    """Probability that fewer than a majority of servers is up.

    Servers fail independently with probability ``server_down_probability``.
    The group fails when the number of simultaneously down servers exceeds
    ``server_count - quorum``, the quorum being a majority.
    """
    if server_count < 1:
        raise ValueError("server count must be positive")
    if not 0.0 <= server_down_probability <= 1.0:
        raise ValueError("probability out of range")
    tolerated = server_count - (server_count // 2 + 1)
    probability = 0.0
    p = server_down_probability
    for crashed in range(tolerated + 1, server_count + 1):
        probability += (_binomial(server_count, crashed) *
                        p ** crashed * (1 - p) ** (server_count - crashed))
    return probability


def pairwise_conflict_probability(writes_per_transaction: float,
                                  item_count: int) -> float:
    """Probability that two independent transactions write a common item."""
    if item_count <= 0:
        raise ValueError("item count must be positive")
    w = writes_per_transaction
    # Probability that none of the ~w items of the second transaction hits
    # any of the ~w items of the first one (uniform access).
    return 1.0 - (1.0 - w / item_count) ** w


def lazy_conflict_probability(server_count: int, per_server_tps: float,
                              propagation_delay_ms: float,
                              writes_per_transaction: float,
                              item_count: int) -> float:
    """Probability of at least one cross-server conflict per propagation window.

    During a propagation window of ``propagation_delay_ms`` every server
    commits ``per_server_tps * window`` transactions locally that the others
    have not seen yet.  Any pair of such transactions originating on two
    *different* servers and writing a common item creates divergence (lazy
    replication performs no conflict handling).  The result grows with the
    number of servers — the core of the paper's Sect. 7 argument.
    """
    if server_count < 2:
        return 0.0
    window_s = propagation_delay_ms / 1000.0
    transactions_per_server = per_server_tps * window_s
    pair_conflict = pairwise_conflict_probability(writes_per_transaction,
                                                  item_count)
    # Number of cross-server transaction pairs in one window.
    cross_pairs = (_binomial(server_count, 2) *
                   transactions_per_server * transactions_per_server)
    no_conflict = (1.0 - pair_conflict) ** cross_pairs
    return 1.0 - no_conflict


def acid_violation_probability(technique: str, server_count: int,
                               server_down_probability: float = 0.05,
                               system_tps: float = 30.0,
                               propagation_delay_ms: float = 250.0,
                               writes_per_transaction: float = 7.5,
                               item_count: int = 10_000) -> float:
    """Probability of an ACID violation for one propagation window / epoch.

    ``technique`` is ``"1-safe"`` (lazy) or ``"group-safe"``; the other
    techniques map onto one of the two behaviours (group-1-safe behaves like
    group-safe, 2-safe never violates durability and has no lazy divergence).
    """
    if technique in ("1-safe", "0-safe", "lazy"):
        per_server = system_tps / server_count
        return lazy_conflict_probability(server_count, per_server,
                                         propagation_delay_ms,
                                         writes_per_transaction, item_count)
    if technique in ("group-safe", "group-1-safe"):
        return group_failure_probability(server_count, server_down_probability)
    if technique == "2-safe":
        return 0.0
    raise ValueError(f"unknown technique {technique!r}")


@dataclass(frozen=True)
class ScalingPoint:
    """One point of the Sect. 7 scaling comparison."""

    server_count: int
    lazy_violation_probability: float
    group_safe_violation_probability: float

    @property
    def group_safe_wins(self) -> bool:
        """True if group-safe replication is the safer choice at this size."""
        return (self.group_safe_violation_probability
                < self.lazy_violation_probability)


def scaling_comparison(server_counts: List[int]) -> List[ScalingPoint]:
    """Evaluate both curves of the Sect. 7 argument over ``server_counts``
    at the :func:`acid_violation_probability` defaults."""
    return [ScalingPoint(
        server_count=count,
        lazy_violation_probability=acid_violation_probability("1-safe", count),
        group_safe_violation_probability=acid_violation_probability(
            "group-safe", count))
        for count in server_counts]
