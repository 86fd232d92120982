"""The eager item store: the reference model of :class:`repro.db.ItemStore`.

This is the store ``src/repro/db/items.py`` shipped until the sparse one
replaced it — one :class:`~repro.db.Item` per key, allocated up front — kept
as the obviously-correct model the property tests drive side by side with the
real store.  Two things were added so that both answer the same calls:
``reset`` (the loop that used to live in ``repro.db.recovery._reset``) and
``committed``; and ``restore`` resets first, the one contract change of the
sparse store (a snapshot no longer mentions untouched keys).
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.db import Item, ItemVersion


class ReferenceItemStore:
    """A named collection of :class:`Item` objects, all allocated eagerly."""

    def __init__(self, item_count: int = 0, prefix: str = "item") -> None:
        self._items: Dict[str, Item] = {}
        self.lookup = self._items.get
        self.prefix = prefix
        for index in range(item_count):
            self.create(f"{prefix}-{index}")

    def create(self, key: str, value: object = 0) -> Item:
        if key in self._items:
            raise ValueError(f"item {key!r} already exists")
        item = Item(key=key, value=value)
        self._items[key] = item
        return item

    def get(self, key: str) -> Item:
        return self._items[key]

    def committed(self, key: str) -> ItemVersion:
        item = self._items[key]
        return ItemVersion(value=item.value, version=item.version,
                           writer=item.writer, commit_order=item.commit_order)

    def reset(self) -> None:
        for item in self._items.values():
            item.value = 0
            item.version = 0
            item.writer = None
            item.commit_order = 0

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items.values())

    def keys(self) -> List[str]:
        return list(self._items)

    def snapshot(self) -> Dict[str, ItemVersion]:
        return {key: self.committed(key) for key in self._items}

    def restore(self, snapshot: Dict[str, ItemVersion]) -> None:
        self.reset()
        for key, version in snapshot.items():
            if key not in self._items:
                self.create(key)
            item = self._items[key]
            item.value = version.value
            item.version = version.version
            item.writer = version.writer
            item.commit_order = version.commit_order

    def versions(self) -> Dict[str, int]:
        return {key: item.version for key, item in self._items.items()}
