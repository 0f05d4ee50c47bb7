"""Prpl: a personal-cloud "butler" federating each user's devices.

As the paper describes it: in Prpl's hybrid organization, "users are
allowed to store their data in a distributed and unstructured way, and
then there is a process per user that federates the distributed storage of
each user and act as a super peer.  These super peers form a structured
overlay of storage" (Section II-B).

Composition: each user owns several **devices** (unstructured personal
storage — items live on whichever device created them) plus one **butler**
(Prpl's per-user federating process) that indexes the user's items across
devices.  The butlers join a Chord ring, so finding *any* user's item is
structured (O(log n) to the butler) followed by the butler's device-local
redirect — the two-tier lookup Prpl's design promises.
"""

from __future__ import annotations

import random as _random
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import LookupError_, OverlayError, StorageError
from repro.fabric import Fabric
from repro.overlay.chord import ChordRing, LookupResult
from repro.overlay.network import SimNode
from repro.stack import (ContentItem, LayerSpec, PlacementLayer,
                         ProtectionStack, SystemSpec, register_system)

PRPL_SPEC = register_system(SystemSpec(
    name="prpl",
    citation="personal-cloud butler design",
    overlay="two-tier: unstructured per-user devices under a structured "
            "butler Chord ring",
    layers=(
        LayerSpec("placement", "device store + butler index",
                  detail="items live on whichever device created them; "
                         "the butler federates and indexes them "
                         "(Section II-B)"),
    ),
    notes="placement-only pipeline: Prpl's contribution is the storage "
          "organization, not content cryptography"))


class Device(SimNode):
    """One of a user's devices: dumb unstructured item storage."""

    def __init__(self, device_id: str, owner: str) -> None:
        super().__init__(device_id)
        self.owner = owner
        self.items: Dict[str, bytes] = {}


class PrplNetwork:
    """A Prpl deployment: devices + butlers + a butler Chord ring."""

    def __init__(self, seed: int = 0) -> None:
        self.fabric = Fabric.create(seed=seed)
        self.sim = self.fabric.sim
        self.network = self.fabric.network
        self.ring = ChordRing(self.fabric, replication=2)
        self.rng = _random.Random(seed)
        self.devices: Dict[str, Device] = {}
        #: user -> their device ids
        self.user_devices: Dict[str, List[str]] = {}
        #: user -> item -> device id holding it (the butler's index)
        self.butler_index: Dict[str, Dict[str, str]] = {}
        self._built = False
        self.stack = ProtectionStack([
            PlacementLayer(post=self._device_store, read=self._butler_fetch,
                           spec=PRPL_SPEC.layers[0]),
        ], spec=PRPL_SPEC, tracer=self.fabric.tracer,
            metrics=self.fabric.metrics)

    # -- enrollment ------------------------------------------------------------------

    def register(self, user: str, device_count: int = 2) -> List[str]:
        """Create a user: a butler (ring member) plus their devices."""
        if user in self.user_devices:
            raise OverlayError(f"{user!r} already registered")
        self.ring.add_node(f"butler:{user}")
        self._built = False
        device_ids = []
        for index in range(device_count):
            device_id = f"{user}/dev{index}"
            device = Device(device_id, user)
            self.devices[device_id] = device
            self.network.register(device)
            device_ids.append(device_id)
        self.user_devices[user] = device_ids
        self.butler_index[user] = {}
        return device_ids

    def _ensure_built(self) -> None:
        if not self._built:
            self.ring.build()
            self._built = True

    # -- stack layer hooks -------------------------------------------------------

    def _device_store(self, item: ContentItem) -> None:
        user, item_id = item.author, item.meta["item_id"]
        device_ids = self.user_devices.get(user)
        if not device_ids:
            raise OverlayError(f"{user!r} is not registered")
        device_id = item.meta.get("device_id")
        if device_id is None:
            device_id = self.rng.choice(device_ids)
        if device_id not in device_ids:
            raise OverlayError(f"{device_id!r} is not {user}'s device")
        self.devices[device_id].items[item_id] = item.payload
        if self.network.rpc_issue(device_id, f"butler:{user}",
                                  "prpl_index").ok:
            self.butler_index[user][item_id] = device_id
        item.meta["device_id"] = device_id

    def _butler_fetch(self, item: ContentItem) -> None:
        owner, item_id = item.author, item.meta["item_id"]
        start = f"butler:{item.reader}"
        if start not in self.ring.nodes:
            raise OverlayError(f"{item.reader!r} is not registered")
        # structured phase: route to the owner's butler by name
        result = self.ring.lookup(start, f"butler:{owner}")
        hops = result.hops
        butler = f"butler:{owner}"
        if not self.network.rpc_issue(result.owner, butler,
                                      "prpl_butler").ok:
            raise LookupError_(f"{owner!r}'s butler is offline")
        hops += 1
        device_id = self.butler_index.get(owner, {}).get(item_id)
        if device_id is None:
            raise StorageError(f"{owner!r} has no item {item_id!r}")
        device = self.devices[device_id]
        reply = self.network.rpc_issue(butler, device_id, "prpl_device")
        hops += 1
        if not reply.ok or item_id not in device.items:
            raise StorageError(
                f"device {device_id!r} holding {item_id!r} is offline")
        item.result = (device.items[item_id], hops)

    # -- storing: unstructured, but indexed by the butler ------------------------------

    def store(self, user: str, item_id: str, content: bytes,
              device_id: Optional[str] = None) -> str:
        """Store on one of the user's devices; the butler learns where.

        Devices are picked arbitrarily (the 'distributed and unstructured'
        half); only the butler's index makes the item findable.
        """
        item = ContentItem(author=user, payload=content,
                           meta={"item_id": item_id, "device_id": device_id})
        self.stack.post(item)
        return item.meta["device_id"]

    # -- lookup: structured to the butler, one hop to the device -----------------------

    def fetch(self, requester: str, owner: str,
              item_id: str) -> Tuple[bytes, int]:
        """Find ``owner``'s item from anywhere: ring -> butler -> device.

        Returns ``(content, total hops)``.  The butler being a ring node
        means any user's butler is reachable in O(log n); the final hop is
        the butler's device redirect.
        """
        self._ensure_built()
        item = ContentItem(author=owner, reader=requester,
                           meta={"item_id": item_id})
        self.stack.read(item)
        return item.result

    # -- failure knobs ------------------------------------------------------------------

    def device_offline(self, device_id: str) -> None:
        """A phone runs out of battery (items on it become unreachable)."""
        self.devices[device_id].online = False

    def butler_offline(self, user: str) -> None:
        """The federating process dies (nothing of the user is findable)."""
        self.ring.nodes[f"butler:{user}"].online = False
