"""Vis-à-Vis distributed location trees (Section II-B).

"Vis-a-vis designed its own structure *distributed location trees*, which
provides efficient and scalable sharing."  In Vis-à-Vis each user runs a
Virtual Individual Server (VIS); a social *group* maintains one location
tree whose nodes correspond to geographic regions, each node hosted by a
member's VIS.  Location-restricted queries ("group members near Istanbul")
descend only the matching subtree, touching O(depth + results) servers
instead of the whole group.

Implementation notes:

* regions are hierarchical paths like ``("europe", "turkey", "istanbul")``;
* each tree node is *hosted* by the VIS of some member inside that region
  (the first member to populate it, re-hostable on failure) — so the tree
  itself is distributed, matching the paper's "decentralization via
  virtual individual servers";
* queries are accounted through :meth:`SimNetwork.rpc_issue` hop by hop —
  each hop's :class:`~repro.overlay.simulator.Reply` says whether the host
  answered and what the round trip cost — so the lookup experiments can
  compare against the other overlays;
* a member's coordinates are visible only *inside* the subtree they chose
  to register under — the location-privacy dial Vis-à-Vis exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import LookupError_, OverlayError
from repro.overlay.network import SimNetwork, SimNode

#: A region path, root-first, e.g. ``("europe", "turkey", "istanbul")``.
Region = Tuple[str, ...]


class VirtualIndividualServer(SimNode):
    """One member's always-on personal server (the Vis-à-Vis VIS)."""

    def __init__(self, owner: str) -> None:
        super().__init__(owner)
        #: (group, region) tree nodes this VIS currently hosts
        self.hosted: List[Tuple[str, Region]] = []


@dataclass
class _TreeNode:
    """One region node of a group's location tree."""

    region: Region
    host: str                                  # VIS owner hosting this node
    members: List[str] = field(default_factory=list)   # members *at* region
    children: Dict[str, "_TreeNode"] = field(default_factory=dict)


@dataclass
class LocationQueryResult:
    """Members found plus the traversal cost."""

    members: List[str]
    hops: int
    rtt: float
    servers_contacted: List[str]


class LocationTree:
    """A single group's distributed location tree."""

    def __init__(self, group: str, network: SimNetwork) -> None:
        self.group = group
        self.network = network
        self._root: Optional[_TreeNode] = None
        self.servers: Dict[str, VirtualIndividualServer] = {}

    # -- membership -------------------------------------------------------------

    def _ensure_server(self, owner: str) -> VirtualIndividualServer:
        server = self.servers.get(owner)
        if server is None:
            server = VirtualIndividualServer(owner)
            self.servers[owner] = server
            self.network.register(server)
        return server

    def add_member(self, owner: str, region: Region) -> None:
        """Join the group, registering under ``region``.

        Creates any missing tree nodes along the path; each new node is
        hosted by the joining member's VIS (the first VIS inside that
        region), which is how the tree stays distributed.
        """
        if not region:
            raise OverlayError("region paths need at least one component")
        server = self._ensure_server(owner)
        if self._root is None:
            self._root = _TreeNode(region=(), host=owner)
            server.hosted.append((self.group, ()))
        node = self._root
        path: Region = ()
        for component in region:
            path = path + (component,)
            child = node.children.get(component)
            if child is None:
                child = _TreeNode(region=path, host=owner)
                node.children[component] = child
                server.hosted.append((self.group, path))
            node = child
        node.members.append(owner)

    def remove_member(self, owner: str, region: Region) -> None:
        """Leave the group (empty nodes are left in place; hosts remain)."""
        node = self._find(region)
        if node is None or owner not in node.members:
            raise OverlayError(f"{owner!r} is not registered at {region}")
        node.members.remove(owner)

    def _find(self, region: Region) -> Optional[_TreeNode]:
        node = self._root
        for component in region:
            if node is None:
                return None
            node = node.children.get(component)
        return node

    # -- failure handling ----------------------------------------------------------

    def rehost(self, region: Region, new_host: str) -> None:
        """Move a tree node to another member's VIS (recovery path)."""
        node = self._find(region)
        if node is None:
            raise OverlayError(f"no tree node for region {region}")
        self._ensure_server(new_host)
        old = self.servers.get(node.host)
        if old is not None and (self.group, region) in old.hosted:
            old.hosted.remove((self.group, region))
        node.host = new_host
        self.servers[new_host].hosted.append((self.group, region))

    # -- queries ----------------------------------------------------------------------

    def query(self, requester: str, region: Region,
              max_results: Optional[int] = None) -> LocationQueryResult:
        """All group members registered under ``region``'s subtree.

        Descends from the root, paying one RPC per tree node visited; a
        node whose host VIS is offline makes its whole subtree unreachable
        (the failure mode :meth:`rehost` exists for).
        """
        if self._root is None:
            raise LookupError_(f"group {self.group!r} has no members")
        hops = 0
        rtt = 0.0
        contacted: List[str] = []
        node = self._root
        previous = requester
        # phase 1: descend to the queried region
        for component in region:
            reply = self.network.rpc_issue(previous, node.host, "vis_route")
            hops += 1
            rtt += reply.latency
            contacted.append(node.host)
            if not reply.ok:
                raise LookupError_(
                    f"VIS {node.host!r} hosting {node.region} is offline; "
                    "rehost the node to restore the subtree")
            previous = node.host
            node = node.children.get(component)
            if node is None:
                return LocationQueryResult(members=[], hops=hops, rtt=rtt,
                                           servers_contacted=contacted)
        # phase 2: collect the subtree
        members: List[str] = []
        stack = [node]
        while stack:
            current = stack.pop()
            reply = self.network.rpc_issue(previous, current.host,
                                           "vis_collect")
            hops += 1
            rtt += reply.latency
            contacted.append(current.host)
            if not reply.ok:
                continue  # that branch is dark; report what we can reach
            members.extend(current.members)
            if max_results is not None and len(members) >= max_results:
                members = members[:max_results]
                break
            stack.extend(current.children.values())
        return LocationQueryResult(members=sorted(set(members)), hops=hops,
                                   rtt=rtt, servers_contacted=contacted)

    # -- privacy accounting -----------------------------------------------------------

    def location_visibility(self, member: str,
                            region: Region) -> List[Region]:
        """Which region prefixes can learn this member's presence.

        A member registered at ``region`` is discoverable by queries on
        every prefix of that path — the precision they registered at *is*
        the privacy they gave up, Vis-à-Vis's central dial.
        """
        node = self._find(region)
        if node is None or member not in node.members:
            raise OverlayError(f"{member!r} is not registered at {region}")
        return [region[:i] for i in range(len(region) + 1)]
