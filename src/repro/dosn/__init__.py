"""The core DOSN library: users, content, storage architectures, feeds.

This package composes the substrates — crypto (:mod:`repro.crypto`), access
control (:mod:`repro.acl`), integrity (:mod:`repro.integrity`) and overlays
(:mod:`repro.overlay`) — into the user-facing social network the paper
surveys.  Entry point: :class:`repro.dosn.api.DosnNetwork`.
"""

from repro.dosn.api import ARCHITECTURES, DosnConfig, DosnNetwork
from repro.dosn.content import content_id
from repro.dosn.feed import FeedItem, FeedReport, assemble_feed
from repro.dosn.identity import Identity, KeyRegistry, create_identity
from repro.dosn.provider import CentralProvider, ExposureReport
from repro.dosn.results import READ_SOURCES, ReadResult
from repro.dosn.storage import FetchedBlob, StorageBackend
from repro.dosn.user import DosnUser, VerifiedPost

__all__ = [
    "ARCHITECTURES", "CentralProvider", "DosnConfig", "DosnNetwork",
    "DosnUser",
    "ExposureReport", "FeedItem", "FeedReport", "FetchedBlob", "Identity",
    "KeyRegistry",
    "READ_SOURCES", "ReadResult",
    "StorageBackend", "VerifiedPost", "assemble_feed",
    "content_id", "create_identity",
]
