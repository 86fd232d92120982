"""Stable storage: the part of a server's state that survives crashes.

The distinction between volatile memory and stable storage is what the whole
paper turns on: 2-safety relies on stable storage for durability, group-safety
relies on the *group* instead.  :class:`StableStorage` is a simple key/value
abstraction registered with the hosting :class:`~repro.network.node.Node` so
that a crash wipes everything *except* these objects.

Writing to stable storage is modelled in two steps so that the timing model
stays explicit:

* the *logical* mutation (``put`` / ``append``) is free of simulated time;
* the *physical* disk occupation is charged by the caller through the node's
  disk resource (the write-ahead log and the buffer pool do this), because
  how and when the physical write happens is precisely what differs between
  the replication techniques.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional


class StableStorage:
    """Crash-surviving key/value store of one server."""

    def __init__(self, name: str = "stable") -> None:
        self.name = name
        self._data: Dict[str, Any] = {}
        #: Number of logical writes, for statistics and tests.
        self.write_count = 0

    def put(self, key: str, value: Any) -> None:
        """Durably associate ``value`` with ``key``."""
        self._data[key] = value
        self.write_count += 1

    def get(self, key: str, default: Any = None) -> Any:
        """Return the value stored under ``key`` (or ``default``)."""
        return self._data.get(key, default)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> List[str]:
        """All stored keys."""
        return list(self._data)

    def clear(self) -> None:
        """Erase the storage (used only by experiment setup, never by crashes)."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<StableStorage {self.name!r} entries={len(self._data)}>"


class StableLog:
    """An append-only crash-surviving sequence (the shape WALs want)."""

    def __init__(self, name: str = "log") -> None:
        self.name = name
        self._entries: List[Any] = []

    def append(self, entry: Any) -> int:
        """Append ``entry`` and return its log sequence number (0-based)."""
        self._entries.append(entry)
        return len(self._entries) - 1

    def entries(self, start: int = 0, end: Optional[int] = None) -> List[Any]:
        """Return entries ``start:end`` (a copy)."""
        return list(self._entries[start:end])

    def __iter__(self) -> Iterator[Any]:
        return iter(list(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    # repro: allow(unused-surface): only its own test uses it; ROADMAP 7(b)
    def truncate(self, up_to: int) -> None:
        """Discard entries before index ``up_to`` (log compaction)."""
        if up_to <= 0:
            return
        del self._entries[:up_to]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<StableLog {self.name!r} entries={len(self._entries)}>"
