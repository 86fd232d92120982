"""Per-key partition tables: the reference the slice-built tables must match.

:class:`~repro.partition.workload.PartitionedWorkloadGenerator` cuts each
group's key list and Zipf cumulative table from its shard ranges
(:meth:`~repro.partition.routing.RoutingTable.selector`), and a migration cuts
its copy list the same way.  This module keeps the way they were built
before: route every key of the keyspace one by one, and sum each group's
weights key by key from the key's global rank.  The tables of the two must be
equal with ``==``, floats included.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.db.items import ItemStore
from repro.partition.routing import KeyRange, RoutingSnapshot, RoutingTable


def fresh_snapshot(table: RoutingTable) -> RoutingSnapshot:
    """A standalone snapshot of ``table``'s current map (its own memos)."""
    return RoutingSnapshot(table.epoch, table.assignments, table.slots,
                           table.group_count)


def partition_keys(snapshot: RoutingSnapshot,
                   keys: Sequence[str]) -> Dict[int, List[str]]:
    """Group ``keys`` by owning group, preserving order within each."""
    grouped: Dict[int, List[str]] = {}
    for key in keys:
        grouped.setdefault(snapshot.partition_of(key), []).append(key)
    return grouped


def cumulative_by_partition(grouped: Dict[int, List[str]],
                            keys: Sequence[str],
                            skew: float) -> Dict[int, List[float]]:
    """Each group's running sum of ``(global rank + 1) ** -skew``."""
    global_rank = {key: index for index, key in enumerate(keys)}
    tables: Dict[int, List[float]] = {}
    for partition_id, members in grouped.items():
        total = 0.0
        cumulative: List[float] = []
        for key in members:
            total += (global_rank[key] + 1) ** -skew
            cumulative.append(total)
        tables[partition_id] = cumulative
    return tables


def zipf_cumulative(population_size: int, skew: float) -> List[float]:
    """The whole keyspace's running sum of ``rank ** -skew``."""
    total = 0.0
    cumulative: List[float] = []
    for rank in range(1, population_size + 1):
        total += rank ** -skew
        cumulative.append(total)
    return cumulative


def copy_list(store: ItemStore, table: RoutingTable,
              key_range: KeyRange) -> List[str]:
    """A migration's copy list: every store key the range covers."""
    return [key for key in store.keys()
            if key_range.contains(table.position_of(key))]
