"""Typed read/feed results: what a read returned *and how much to trust it*.

:meth:`DosnNetwork.read <repro.dosn.api.DosnNetwork.read>` used to pass
the bare :class:`~repro.dosn.user.VerifiedPost` through, which left the
caller no way to tell a fresh quorum read from a degraded one, or a
cache hit from a cold fetch.  :class:`ReadResult` makes that provenance
part of the API:

* ``post`` — the decrypted post, its cid found on the author's signed chain;
* ``verified`` — whether the full decrypt + verify pipeline ran on the
  served bytes (always ``True`` on current paths; the field exists so a
  future best-effort mode cannot masquerade as verified);
* ``degraded`` — a below-quorum read
  (:attr:`repro.storage2.ReplicationConfig.degraded_reads`): verified
  bytes, weakened freshness guarantee;
* ``source`` — ``"cache"`` (served from the reader's verified-content
  cache after a chain-head re-check), ``"quorum"`` (a verified R-of-N
  quorum read) or ``"bare"`` (first-responder / provider fetch).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dosn.user import VerifiedPost

__all__ = ["READ_SOURCES", "ReadResult"]

#: Legal values of :attr:`ReadResult.source`.
READ_SOURCES = ("cache", "quorum", "bare")


@dataclass(slots=True, frozen=True)
class ReadResult:
    """One read's payload plus its trust provenance (frozen: every hit
    on a cache entry serves the entry's one result)."""

    post: VerifiedPost
    verified: bool = True
    degraded: bool = False
    source: str = "bare"

    def __post_init__(self) -> None:
        if self.source not in READ_SOURCES:
            raise ValueError(
                f"ReadResult.source must be one of {READ_SOURCES}, "
                f"got {self.source!r}")
