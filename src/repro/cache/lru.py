"""A minimal ordered LRU map (the cache tier's eviction mechanism).

Deliberately dependency-free and deterministic: recency is the only
eviction signal, so two runs at the same seed touch and evict in exactly
the same order — the property every experiment table in this repo leans
on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterator, Optional, Tuple, TypeVar

from repro.exceptions import SimulationError

__all__ = ["LRUMap"]

K = TypeVar("K")
V = TypeVar("V")


class LRUMap(Generic[K, V]):
    """An ordered map evicting the least-recently-used entry at capacity."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("LRUMap capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        #: entries pushed out by capacity pressure (not explicit removes)
        self.evictions = 0

    def get(self, key: K) -> Optional[V]:
        """The value for ``key`` (refreshing its recency), else ``None``."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert/refresh an entry; returns the evicted ``(key, value)``.

        ``None`` when nothing was pushed out.
        """
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            evicted = self._data.popitem(last=False)
            self.evictions += 1
            return evicted
        return None

    def remove(self, key: K) -> Optional[V]:
        """Drop an entry (explicit invalidation; not counted as eviction)."""
        return self._data.pop(key, None)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[K]:
        """Keys, least-recently-used first."""
        return iter(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LRUMap({len(self._data)}/{self.capacity})"
