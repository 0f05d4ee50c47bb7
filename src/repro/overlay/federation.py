"""Server federation: the Diaspora-pod decentralization model.

Section II-B of the paper: "**Server Federation**: ... The main purpose of
this architecture is to distribute users' data among several servers which
are running on separate storage entity.  In this way none of them will have
a complete global view of the private data stored in the system."

Users pick (or are assigned) a home server; content lives on the author's
home server; cross-server delivery federates a copy to each recipient's
home server.  :meth:`FederatedNetwork.server_view` exports exactly what one
server operator observes — the quantity experiment E8 compares against the
centralized provider ("one big provider" vs. "several small ones") and the
P2P overlays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import LookupError_, OverlayError
from repro.overlay.network import SimNetwork, SimNode


class FederationServer(SimNode):
    """One pod: hosts users, stores their content, receives federated copies."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.users: Set[str] = set()
        #: content id -> (author, payload)
        self.content: Dict[str, Tuple[str, bytes]] = {}
        #: social edges this server has observed (delivery metadata)
        self.observed_edges: Set[Tuple[str, str]] = set()


@dataclass
class FederatedDelivery:
    """Cost record for one federated post."""

    content_id: str
    servers_stored: List[str]
    cross_server_messages: int


class FederatedNetwork:
    """A set of pods plus the user -> home-server assignment."""

    def __init__(self, network: SimNetwork, server_names: Sequence[str]) -> None:
        if not server_names:
            raise OverlayError("federation needs at least one server")
        self.network = network
        self.servers: Dict[str, FederationServer] = {}
        for name in server_names:
            server = FederationServer(name)
            self.servers[name] = server
            network.register(server)
        self.home: Dict[str, str] = {}

    def register_user(self, user: str,
                      home: Optional[str] = None) -> str:
        """Assign a user to a home server (hash-balanced by default)."""
        if home is None:
            ordered = sorted(self.servers)
            digest = hashlib.sha256(b"repro/fed/" + user.encode()).digest()
            home = ordered[int.from_bytes(digest[:4], "big") % len(ordered)]
        if home not in self.servers:
            raise OverlayError(f"unknown server {home!r}")
        self.home[user] = home
        self.servers[home].users.add(user)
        return home

    def post(self, author: str, content_id: str, payload: bytes,
             recipients: Sequence[str]) -> FederatedDelivery:
        """Publish: store at home, federate to recipients' home servers.

        Every involved server records the author->recipient edges it can
        see — the metadata leak the paper attributes to federation.  A
        remote server is involved only if its ``fed_deliver`` reply is
        ``ok``.
        """
        home = self._home_of(author)
        home_server = self.servers[home]
        home_server.content[content_id] = (author, payload)
        stored = [home]
        cross = 0
        for recipient in recipients:
            r_home = self._home_of(recipient)
            home_server.observed_edges.add((author, recipient))
            if r_home != home:
                cross += 1
                if not self.network.rpc_issue(home, r_home,
                                              "fed_deliver").ok:
                    continue
                remote = self.servers[r_home]
                if content_id not in remote.content:
                    stored.append(r_home)
                # Overwrites federate too: a re-post must replace the
                # remote copy, or remote readers are pinned to version 1.
                remote.content[content_id] = (author, payload)
                remote.observed_edges.add((author, recipient))
        return FederatedDelivery(content_id=content_id,
                                 servers_stored=stored,
                                 cross_server_messages=cross)

    def fetch(self, reader: str, content_id: str) -> bytes:
        """Read from the reader's home server (one RPC).

        Raises :class:`LookupError_` when the home pod does not answer or
        was never federated the content.
        """
        home = self._home_of(reader)
        server = self.servers[home]
        if not self.network.rpc_issue(reader, home, "fed_fetch").ok:
            raise LookupError_(f"home pod {home!r} is unreachable")
        if content_id not in server.content:
            raise LookupError_(
                f"{content_id!r} was not federated to {home!r}")
        return server.content[content_id][1]

    def fetch_many(self, reader: str, content_ids: Sequence[str]
                   ) -> Dict[str, object]:
        """Batched read from the reader's home server (one RPC total).

        The whole batch rides a single ``fed_fetch_batch`` RPC — the
        federation analogue of the per-holder coalescing the DHT does.
        Ids missing from the home pod — every id, when the pod does not
        answer — come back as :class:`LookupError_` **values** keyed by
        id (never raised), so one undelivered post cannot fail a feed's
        fetch pass.
        """
        results: Dict[str, object] = {}
        if not content_ids:
            return results
        home = self._home_of(reader)
        server = self.servers[home]
        if not self.network.rpc_issue(reader, home, "fed_fetch_batch").ok:
            return {content_id: LookupError_(
                        f"home pod {home!r} is unreachable")
                    for content_id in content_ids}
        for content_id in content_ids:
            if content_id in results:
                continue
            if content_id in server.content:
                results[content_id] = server.content[content_id][1]
            else:
                results[content_id] = LookupError_(
                    f"{content_id!r} was not federated to {home!r}")
        return results

    def _home_of(self, user: str) -> str:
        try:
            return self.home[user]
        except KeyError:
            raise OverlayError(f"user {user!r} has no home server")

    # -- exposure accounting (experiment E8) ----------------------------------

    def server_view(self, server_name: str) -> Dict[str, object]:
        """What one pod operator observes: users, content, social edges."""
        server = self.servers[server_name]
        return {
            "users": set(server.users),
            "content_ids": set(server.content),
            "authors": {author for author, _ in server.content.values()},
            "edges": set(server.observed_edges),
        }

    def max_view_fraction(self, total_content: int,
                          total_edges: int) -> Tuple[float, float]:
        """The worst single server's share of content and of the social graph.

        The paper's federation claim is precisely that this stays well
        below 1.0 (the centralized provider's value).
        """
        content_frac = max(
            (len(s.content) / total_content if total_content else 0.0)
            for s in self.servers.values())
        edge_frac = max(
            (len(s.observed_edges) / total_edges if total_edges else 0.0)
            for s in self.servers.values())
        return content_frac, edge_frac
