"""Exception hierarchy for the ``repro`` library.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish crypto failures (bad keys, failed integrity checks) from
simulation or access-control failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class InvalidKeyError(CryptoError):
    """A key is malformed, of the wrong type, or outside its valid range."""


class DecryptionError(CryptoError):
    """Decryption failed: wrong key, corrupted ciphertext, or bad padding."""


class SignatureError(CryptoError):
    """A signature failed to verify or could not be produced."""


class IntegrityError(ReproError):
    """A data-integrity invariant was violated (Section IV of the paper).

    Raised when hash chains do not link, history-tree proofs fail, message
    envelopes are tampered with, or fork consistency detects equivocation.
    """


class ReplicaIntegrityError(IntegrityError):
    """Replica holders were reachable but none served a valid copy.

    Distinct from :class:`StorageError` (nobody reachable / id unknown):
    here the data *was* served, and every served copy failed verification
    — the Byzantine-holder case, which callers may want to alarm on
    rather than retry.
    """


class AccessDeniedError(ReproError):
    """An access-control policy denied an operation (Section III)."""


class PolicyError(ReproError):
    """An access policy is malformed (e.g. an invalid ABE access tree)."""


class SearchError(ReproError):
    """A secure-social-search protocol failed (Section V)."""


class OverlayError(ReproError):
    """An overlay-network operation failed (Section II)."""


class LookupError_(OverlayError):
    """A key lookup in the overlay could not be resolved."""


class DeadlineExceededError(OverlayError):
    """An operation's propagated deadline expired before it finished.

    Deliberately *not* a :class:`LookupError_`: a routing failure means
    "try the replicas directly", but an expired deadline means "stop —
    nobody is waiting for the answer", so the hedged-fallback paths that
    catch :class:`LookupError_` must not swallow this and issue doomed
    probes.
    """


class StorageError(OverlayError):
    """Stored content could not be retrieved (offline replicas, missing id)."""


class QuorumWriteError(StorageError):
    """A replicated write gathered fewer acks than the write quorum W."""


class OverloadedError(StorageError):
    """A peer shed the request because its service queue was full.

    The typed fast-failure of the overload stack: unlike a timeout the
    caller learns *immediately* (one round trip) that the destination is
    saturated, so backing off is cheap.  A :class:`StorageError` subclass
    so existing ``except (LookupError_, StorageError)`` workload loops
    keep counting it as an unavailable read.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""
