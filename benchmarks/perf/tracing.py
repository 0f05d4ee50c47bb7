"""Outside-in span tracing for the perf harness.

Nothing here is imported by ``src/``: a traced pass monkeypatches
``functools.wraps`` wrappers around the public callables listed in
:func:`default_targets` and removes them again afterwards.  Every wrapped
call records one in-memory span ``(layer, name, start_ns, end_ns, parent,
op_id)`` whose parent is the enclosing wrapper (or the harness op at the
root).  A layer's *self time* is its spans' duration minus the part covered
by their child spans; the program is single-threaded, so children of one
span never overlap and that part is the sum of the direct children.

Wrappers forward arguments, return values and exceptions untouched and draw
no randomness, so a traced pass replays the untraced pass exactly — the
harness asserts that through the outcome digest.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

#: ``op_id`` of spans recorded outside the measured phase (set-up).
SETUP = -1
#: Layer of the root span the harness opens around each operation.
HARNESS = "harness"


class Target(NamedTuple):
    """One callable to wrap: ``getattr(owner, attr)`` becomes a span."""

    owner: Any
    attr: str
    layer: str
    name: str
    #: optional ``(args, result) -> int`` work-unit count (bytes, keys, hops)
    units: Optional[Callable[[tuple, Any], int]] = None


class Recorder:
    """Span store for one traced pass (column-wise, 40 bytes per span)."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.keys: List[str] = []          # "layer.name", indexed by key id
        self._key_ids: Dict[str, int] = {}
        self.key = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.units: Dict[int, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.stack: List[int] = []
        self.op_id = SETUP

    def key_id(self, layer: str, name: str) -> int:
        label = f"{layer}.{name}"
        if label not in self._key_ids:
            self._key_ids[label] = len(self.keys)
            self.keys.append(label)
        return self._key_ids[label]

    def begin(self, key_id: int) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.key)
        self.key.append(key_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(self.clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self.clock()
        self.stack.pop()

    def begin_measured(self) -> None:
        """Drop set-up work units and counts: both describe the measured phase."""
        self.units.clear()
        self.counts.clear()

    def wrap(self, fn: Callable, layer: str, name: str,
             units: Optional[Callable[[tuple, Any], int]] = None) -> Callable:
        """``fn`` recorded as a ``layer.name`` span on every call."""
        key_id = self.key_id(layer, name)
        begin, finish, unit_totals = self.begin, self.finish, self.units

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(key_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(index)
            if units is not None:
                unit_totals[key_id] += units(args, result)
            return result

        return traced

    def count_calls(self, fn: Callable, counter: str) -> Callable:
        """``fn`` counted (no span) — for callables too hot to time."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as a span opened by the harness itself."""
        index = self.begin(self.key_id(layer, name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(index)


class NullRecorder:
    """The untraced pass: harness-opened spans are plain calls."""

    op_id = SETUP

    def key_id(self, layer: str, name: str) -> int:
        return 0

    def begin(self, key_id: int) -> int:
        return 0

    def finish(self, index: int) -> None:
        pass

    def begin_measured(self) -> None:
        pass

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


class Installed:
    """Handle returned by :func:`install`; ``remove()`` restores the originals."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        if attr in vars(owner):
            original = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, original))
        else:  # inherited: shadow on the subclass, delete to restore
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(recorder: Recorder, targets: Iterable[Target],
            counted: Iterable[tuple] = ()) -> Installed:
    """Wrap every target (and count-only callable) on ``recorder``."""
    installed = Installed()
    for target in targets:
        original = vars(target.owner).get(target.attr)
        if original is None:
            original = getattr(target.owner, target.attr)
        if isinstance(original, property):
            replacement = property(recorder.wrap(
                original.fget, target.layer, target.name, target.units))
        else:
            replacement = recorder.wrap(original, target.layer, target.name,
                                        target.units)
        installed.patch(target.owner, target.attr, replacement)
    for owner, attr, counter in counted:
        installed.patch(owner, attr,
                        recorder.count_calls(vars(owner)[attr], counter))
    return installed


def default_targets() -> List[Target]:
    """The public callables the per-layer metrics are defined over."""
    from repro.acl import SCHEME_REGISTRY
    from repro.adversary import defense
    from repro.cache import SocialPrefetcher, VerifiedContentCache
    from repro.crypto import elgamal
    from repro.crypto.node_cert import IdCertifier
    from repro.crypto.pairing import PairingGroup
    from repro.crypto.signatures import SchnorrPublicKey, SchnorrSigner
    from repro.crypto.symmetric import StreamCipher
    from repro.dosn.api import DosnNetwork
    from repro.dosn.storage import DHTBackend
    from repro.dosn.user import DosnUser
    from repro.faults.resilience import ReliableChannel
    from repro.integrity.hashchain import Timeline, TimelineView
    from repro.membership import SwimMembership
    from repro.overlay.chord import ChordRing
    from repro.overlay.kademlia import KademliaOverlay
    from repro.overlay.network import SimNetwork
    from repro.stack import ProtectionStack
    from repro.stack.pipeline import Layer
    from repro.storage2 import ReplicatedStore

    def payload_bytes(args, result):
        return len(args[1])

    targets = [
        Target(DosnNetwork, "add_user", "dosn", "add_user"),
        Target(DosnNetwork, "befriend", "dosn", "befriend"),
        Target(DosnNetwork, "post", "dosn", "post"),
        Target(DosnNetwork, "read", "dosn", "read"),
        Target(DosnNetwork, "feed", "dosn", "feed"),
        Target(DosnNetwork, "repost", "dosn", "repost"),
        Target(DosnUser, "seal_post", "dosn", "user_seal"),
        Target(DosnUser, "reseal_post", "dosn", "user_seal"),
        Target(DosnUser, "protect_document", "dosn", "user_protect"),
        Target(DosnUser, "unlock", "dosn", "user_unlock"),
        Target(DosnUser, "verify_document", "dosn", "user_verify"),
        Target(DosnUser, "sync_timeline", "dosn", "user_sync"),
        Target(DHTBackend, "put", "dosn", "backend_put"),
        Target(DHTBackend, "fetch_blob", "dosn", "backend_fetch"),
        Target(DHTBackend, "get_many", "dosn", "backend_get_many"),
        Target(ProtectionStack, "post", "stack", "post"),
        Target(ProtectionStack, "read", "stack", "read"),
        # The layer hooks are DosnNetwork methods, so their own time is dosn's.
        Target(Layer, "on_post", "dosn", "layer_hook"),
        Target(Layer, "on_read", "dosn", "layer_hook"),
        Target(SchnorrSigner, "public_key", "crypto", "schnorr_keygen"),
        Target(SchnorrSigner, "sign", "crypto", "schnorr_sign"),
        Target(SchnorrPublicKey, "verify", "crypto", "schnorr_verify"),
        Target(elgamal, "generate_keypair", "crypto", "elgamal_keygen"),
        Target(StreamCipher, "encrypt", "crypto", "stream", payload_bytes),
        Target(StreamCipher, "decrypt", "crypto", "stream", payload_bytes),
        Target(PairingGroup, "pair", "crypto", "pairing"),
        Target(Timeline, "publish", "integrity", "chain_publish"),
        Target(Timeline, "head_hash", "integrity", "head_hash"),
        Target(TimelineView, "accept", "integrity", "chain_accept"),
        Target(TimelineView, "head_hash", "integrity", "head_hash"),
        Target(ChordRing, "build", "overlay", "build"),
        Target(ChordRing, "owner_of", "overlay", "chord_owner_of"),
        Target(ChordRing, "replica_set", "overlay", "chord_replica_set"),
        Target(ChordRing, "lookup", "overlay", "chord_lookup",
               lambda args, result: result.hops),
        Target(ChordRing, "put", "overlay", "chord_put"),
        Target(ChordRing, "get", "overlay", "chord_get"),
        Target(ChordRing, "get_many", "overlay", "chord_get_many",
               lambda args, result: len(args[2])),
        Target(KademliaOverlay, "bootstrap", "overlay", "build"),
        Target(KademliaOverlay, "lookup", "overlay", "kad_lookup"),
        Target(KademliaOverlay, "put", "overlay", "kad_put"),
        Target(KademliaOverlay, "get", "overlay", "kad_get"),
        # rpc() is a thin wrapper over rpc_issue(); wrapping the latter
        # also sees the concurrent kernel's fan-outs, once each.
        Target(SimNetwork, "rpc_issue", "overlay", "net_rpc"),
        Target(ReplicatedStore, "put", "storage2", "put"),
        Target(ReplicatedStore, "get", "storage2", "get"),
        Target(ReplicatedStore, "get_many", "storage2", "get_many"),
        Target(VerifiedContentCache, "lookup", "cache", "lookup"),
        Target(VerifiedContentCache, "insert", "cache", "insert"),
        Target(SocialPrefetcher, "warm", "cache", "prefetch_warm"),
        Target(ReliableChannel, "call", "faults", "channel_call"),
        Target(ReliableChannel, "call_issue", "faults", "channel_call"),
        Target(ReliableChannel, "hedged", "faults", "channel_hedged"),
        Target(SwimMembership, "__init__", "membership", "setup"),
        Target(SwimMembership, "register", "membership", "setup"),
        Target(defense, "defended_chord_lookup", "adversary",
               "defended_lookup"),
        Target(IdCertifier, "check", "adversary", "cert_check"),
    ]
    for scheme, cls in sorted(SCHEME_REGISTRY.items()):
        for attr, name in (("create_group", "create_group"),
                           ("publish", "publish"), ("read", "read"),
                           ("revoke_member", "revoke"),
                           ("add_member", "add_member")):
            targets.append(Target(cls, attr, "acl", f"{scheme}.{name}"))
    return targets


def default_counted() -> List[tuple]:
    """Callables counted without a span (see :meth:`Recorder.count_calls`)."""
    from repro.crypto.groups import SchnorrGroup
    return [(SchnorrGroup, "power", "modexp")]


class KeyStats(NamedTuple):
    """Aggregate of one ``layer.name`` over a set of spans."""

    count: int
    total_ns: int
    self_ns: int
    median_ns: float
    median_self_ns: float


class Summary:
    """Per-key and per-layer aggregates of the spans of one phase."""

    def __init__(self, recorder: Recorder, measured: bool) -> None:
        keep = (lambda op: op != SETUP) if measured else \
            (lambda op: op == SETUP)
        n = len(recorder.key)
        child_ns = [0] * n
        for i in range(n):
            parent = recorder.parent[i]
            if parent >= 0:
                child_ns[parent] += recorder.end[i] - recorder.start[i]
        durations: Dict[int, List[int]] = defaultdict(list)
        selfs: Dict[int, List[int]] = defaultdict(list)
        for i in range(n):
            if keep(recorder.op[i]):
                duration = recorder.end[i] - recorder.start[i]
                durations[recorder.key[i]].append(duration)
                selfs[recorder.key[i]].append(duration - child_ns[i])
        self.by_key: Dict[str, KeyStats] = {}
        self.layer_self_ns: Dict[str, int] = defaultdict(int)
        for key_id, values in durations.items():
            label = recorder.keys[key_id]
            own = selfs[key_id]
            self.by_key[label] = KeyStats(
                len(values), sum(values), sum(own),
                statistics.median(values), statistics.median(own))
            self.layer_self_ns[label.split(".", 1)[0]] += sum(own)
        self.units = {recorder.keys[k]: v for k, v in recorder.units.items()}
        self.spans = sum(len(v) for v in durations.values())

    def get(self, label: str) -> KeyStats:
        return self.by_key.get(label, KeyStats(0, 0, 0, 0.0, 0.0))

    def shares(self, wall_ns: int) -> Dict[str, float]:
        """``<layer>.self_share`` of ``wall_ns``; the rest is the harness.

        The harness's own root spans and any wall between them both count
        as ``harness``, so the shares sum to one by construction.
        """
        out = {layer: ns / wall_ns
               for layer, ns in self.layer_self_ns.items()
               if layer != HARNESS}
        out[HARNESS] = 1.0 - sum(out.values())
        return out
