"""Logical database state: items, versions and the item store.

The database of the paper's simulation is a flat collection of 10'000 items
(Table 4).  Each item carries its current committed state only — value,
*version*, writer and commit order — and no record of earlier versions.  The
version is incremented every time a committed transaction overwrites the item,
and serves two purposes:

* the database state machine certification test compares the versions a
  transaction read against the current versions to detect conflicts with
  concurrently committed transactions;
* the serialisability checker and the experiment audits use versions to
  reconstruct which committed write produced the value that is visible.

The :class:`ItemStore` is purely *logical* (no simulated time is consumed by
reading or writing it): the time cost of touching an item lives in the buffer
pool and disk models.

The store is *sparse*.  A run touches a few thousand of its items, so the
population ``item-0 … item-(item_count-1)`` is implicit — one key tuple
and one membership set per ``item_count``, shared by every store of the
process — and a store holds an :class:`Item` only for the keys that were
touched.  Everything else is in its initial state, :data:`INITIAL`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import (Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
                    Tuple)


class ItemVersion(NamedTuple):
    """A single committed version of an item (an immutable value)."""

    value: object
    version: int
    writer: Optional[str] = None          # transaction id that wrote it
    commit_order: int = 0                 # global certification order


#: The state of every item nobody has written yet.
INITIAL = ItemVersion(value=0, version=0)


@dataclass(slots=True)
class Item:
    """One logical database item in its current committed state."""

    key: str
    value: object = 0
    version: int = 0
    writer: Optional[str] = None
    commit_order: int = 0

    def install(self, value: object, writer: Optional[str],
                commit_order: int) -> None:
        """Install a new committed version of the item.

        Installation follows the Thomas write rule: a write belonging to an
        *older* commit order than the currently installed one is skipped, so
        that physically out-of-order application (several apply processes
        racing on the disks) still converges to the state of the logical
        total order.
        """
        if commit_order < self.commit_order:
            return
        self.value = value
        self.version += 1
        self.writer = writer
        self.commit_order = commit_order


# The caches are bounded so a one-off million-key world does not stay resident
# for the life of the process; a store keeps its own universe alive, so an
# eviction only ends the sharing, never the store.
@lru_cache(maxsize=16)
def item_keys(item_count: int) -> Tuple[str, ...]:
    """The conventional keys ``item-0 … item-(item_count-1)``, in order.

    One immutable tuple per population, shared by every item store and every
    workload generator of the process.
    """
    return tuple(f"item-{index}" for index in range(item_count))


@lru_cache(maxsize=16)
def _key_set(item_count: int) -> FrozenSet[str]:
    """Membership view of :func:`item_keys` (tested, never iterated)."""
    return frozenset(item_keys(item_count))


class _Overlay(dict):
    """Key → :class:`Item` for the touched keys of one store.

    ``overlay[key]`` is the *materialising* read: an untouched key of the
    population is faulted in as a fresh version-0 item, an unknown key yields
    ``None``.  ``overlay.get(key)`` (plain ``dict.get``, which never calls
    ``__missing__``) is the read that leaves the overlay alone.
    """

    __slots__ = ("implicit", "created")

    def __init__(self, implicit: FrozenSet[str]) -> None:
        super().__init__()
        self.implicit = implicit
        #: Keys added by ``ItemStore.create``, in creation order.
        self.created: Dict[str, None] = {}

    def __missing__(self, key: str) -> Optional[Item]:
        if key in self.implicit or key in self.created:
            item = self[key] = Item(key)
            return item
        return None


class ItemStore:
    """A named collection of :class:`Item` objects, materialised on touch.

    ``lookup``, ``get``, ``create``, ``restore`` and iteration hand out the
    store's one canonical :class:`Item` per key and so materialise it;
    ``committed``, ``snapshot``, ``versions``, ``keys``, ``len`` and ``in``
    answer for the whole logical population without growing the store.
    """

    def __init__(self, item_count: int = 0) -> None:
        #: The implicit keys ``item-0 … item-(item_count-1)``, in order.
        self.population = item_keys(item_count)
        self._overlay = _Overlay(_key_set(item_count))
        #: The hot per-operation handle: the canonical item of a key, or
        #: None for unknown keys.  A bound C method of the overlay — a
        #: single dict probe once the key has been touched.
        self.lookup = self._overlay.__getitem__

    # -- item management ----------------------------------------------------
    def create(self, key: str, value: object = 0) -> Item:
        """Create a new item (version 0) outside the implicit population."""
        if key in self:
            raise ValueError(f"item {key!r} already exists")
        self._overlay.created[key] = None
        item = self._overlay[key] = Item(key=key, value=value)
        return item

    def get(self, key: str) -> Item:
        """Return the item called ``key``; raise ``KeyError`` if unknown."""
        item = self.lookup(key)
        if item is None:
            raise KeyError(key)
        return item

    def committed(self, key: str) -> ItemVersion:
        """Committed state of ``key`` as a value; never materialises it."""
        item = self._overlay.get(key)
        if item is not None:
            return ItemVersion(value=item.value, version=item.version,
                               writer=item.writer,
                               commit_order=item.commit_order)
        if key in self:
            return INITIAL
        raise KeyError(key)

    def reset(self) -> None:
        """Return every item to its initial (version 0) state.

        Items handed out earlier are orphaned, so no caller may hold one
        across a reset (recovery runs on a node whose processes are gone).
        """
        self._overlay.clear()

    # repro: allow(unused-surface): tests read what the lazy store created
    @property
    def materialised(self) -> int:
        """Number of items actually held (the touched keys)."""
        return len(self._overlay)

    def __contains__(self, key: str) -> bool:
        return key in self._overlay.implicit or key in self._overlay.created

    def __len__(self) -> int:
        return len(self.population) + len(self._overlay.created)

    def __iter__(self) -> Iterator[Item]:
        """Every item in creation order (materialises the whole population)."""
        return map(self.lookup, self.keys())

    def keys(self) -> List[str]:
        """All item keys in creation order."""
        return [*self.population, *self._overlay.created]

    def created_keys(self) -> List[str]:
        """The keys added by :meth:`create`, in creation order."""
        return list(self._overlay.created)

    # -- snapshots -----------------------------------------------------------
    def snapshot(self) -> Dict[str, ItemVersion]:
        """Point-in-time copy of the committed state of every touched item.

        Sparse: a key of the implicit population that is absent is in its
        initial state.  Explicitly created keys always travel (after the
        touched implicit ones, in creation order), so that :meth:`restore`
        recreates them on a store that lacks them.
        """
        created = self._overlay.created
        touched = [key for key in self._overlay if key not in created]
        return {key: self.committed(key) for key in (*touched, *created)}

    def restore(self, snapshot: Dict[str, ItemVersion]) -> None:
        """Replace the store's contents with ``snapshot`` (state transfer)."""
        self.reset()
        for key, version in snapshot.items():
            item = self.lookup(key)
            if item is None:
                item = self.create(key)
            item.value = version.value
            item.version = version.version
            item.writer = version.writer
            item.commit_order = version.commit_order

    # repro: allow(unused-surface): tests compare replicas and the reference
    def versions(self) -> Dict[str, int]:
        """Mapping of item key to current committed version number."""
        versions = dict.fromkeys(self.keys(), 0)
        for key, item in self._overlay.items():
            versions[key] = item.version
        return versions
