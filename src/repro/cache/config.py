"""Configuration for the hot-path read cache (:mod:`repro.cache`).

One frozen dataclass gates everything the cache subsystem does, mirroring
how :class:`repro.storage2.ReplicationConfig` gates the quorum store:
``DosnConfig(cache=CacheConfig(...))`` switches the read side of a
:class:`~repro.dosn.api.DosnNetwork` onto the cached + batched paths;
``cache=None`` (the default) keeps every legacy code path — and every
committed experiment table — byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SimulationError

__all__ = ["CacheConfig"]


@dataclass(frozen=True)
class CacheConfig:
    """The per-reader verified-content cache and batched reads.

    ``capacity_per_reader=0`` disables the LRU tier (and with it the
    social prefetcher, which has nothing to warm) while keeping batched
    feed fan-out on — the configuration E16 uses to price batching and
    caching separately.
    """

    #: max verified posts cached per reader (LRU eviction beyond this;
    #: 0 disables the cache tier entirely)
    capacity_per_reader: int = 256

    def __post_init__(self) -> None:
        if self.capacity_per_reader < 0:
            raise SimulationError("capacity_per_reader must be >= 0")

    @property
    def caching(self) -> bool:
        """Whether the verified-content LRU tier is active."""
        return self.capacity_per_reader > 0
