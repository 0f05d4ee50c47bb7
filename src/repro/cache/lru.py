"""A minimal ordered LRU map (the cache tier's eviction mechanism).

Deliberately dependency-free and deterministic: recency is the only
eviction signal, so two runs at the same seed touch and evict in exactly
the same order — the property every experiment table in this repo leans
on.  :attr:`LRUMap.version` moves on every change of membership or
recency, so a caller can tell that a map is exactly as it left it.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar

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
        #: insertion order is recency order, least-recently-used first (a
        #: plain dict: an ``OrderedDict`` costs a linked node per entry)
        self._data: Dict[K, V] = {}
        #: entries pushed out by capacity pressure (not explicit removes)
        self.evictions = 0
        #: goes up on every hit, put, remove and eviction: an equal
        #: version means the same members in the same recency order
        self.version = 0

    def get(self, key: K) -> Optional[V]:
        """The value for ``key`` (refreshing its recency), else ``None``."""
        data = self._data
        value = data.pop(key, None)
        if value is not None:
            data[key] = value
            self.version += 1
        return value

    def put(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert/refresh an entry; returns the evicted ``(key, value)``.

        ``None`` when nothing was pushed out.
        """
        data = self._data
        data.pop(key, None)
        data[key] = value
        self.version += 1
        if len(data) > self.capacity:
            oldest = next(iter(data))
            self.evictions += 1
            self.version += 1
            return oldest, data.pop(oldest)
        return None

    def remove(self, key: K) -> Optional[V]:
        """Drop an entry (explicit invalidation; not counted as eviction)."""
        self.version += 1
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
