"""Searcher privacy via alias proxies (Section V-B).

"A solution to support privacy of searcher is to use proxy.  In this
method, the real identity of users will be replaced by aliases via the
proxy server.  Since the proxy server knows all the aliases of their users,
it can forward messages correctly.  Servers cannot see the real names of
other servers' users.  However, the security of this approach can be under
the risk by collusion of proxy servers."

:class:`AliasProxy` assigns deterministic-random pseudonyms and forwards
queries; :func:`collude` reproduces the collusion risk: pooling alias
tables re-links pseudonyms to identities, measured as the fraction of
cross-proxy query pairs deanonymized — experiment E7's proxy row.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import SearchError

_DEFAULT_RNG = _random.Random(0x9407)


@dataclass
class ProxiedQuery:
    """What leaves a proxy: alias + query; the real name stays inside."""

    alias: str
    query: str
    via_proxy: str


class AliasProxy:
    """One proxy server: alias table + query forwarding."""

    def __init__(self, name: str,
                 rng: Optional[_random.Random] = None) -> None:
        self.name = name
        self._rng = rng or _DEFAULT_RNG
        self._alias_of: Dict[str, str] = {}
        self._user_of: Dict[str, str] = {}
        self.forwarded: List[ProxiedQuery] = []

    def register(self, user: str) -> str:
        """Assign (or return) the user's stable alias."""
        alias = self._alias_of.get(user)
        if alias is None:
            while True:
                alias = f"anon-{self._rng.getrandbits(32):08x}"
                if alias not in self._user_of:
                    break
            self._alias_of[user] = alias
            self._user_of[alias] = user
        return alias

    def forward_query(self, user: str, query: str) -> ProxiedQuery:
        """Replace the identity with the alias and forward."""
        if user not in self._alias_of:
            raise SearchError(f"{user!r} is not registered with {self.name}")
        proxied = ProxiedQuery(alias=self._alias_of[user], query=query,
                               via_proxy=self.name)
        self.forwarded.append(proxied)
        return proxied

    def deliver_reply(self, alias: str, payload: str) -> Tuple[str, str]:
        """Route a reply back to the real user (only this proxy can)."""
        user = self._user_of.get(alias)
        if user is None:
            raise SearchError(f"unknown alias {alias!r} at {self.name}")
        return user, payload

    # -- what different observers see ------------------------------------------

    def alias_table(self) -> Dict[str, str]:
        """The proxy's secret: alias -> real user (the collusion currency)."""
        return dict(self._user_of)


@dataclass
class CollusionResult:
    """Outcome of proxies pooling their alias tables."""

    deanonymized: Dict[str, str]   # alias -> real user, across all proxies
    queries_linked: int            # proxied queries now attributable
    fraction_linked: float


def collude(proxies: Sequence[AliasProxy]) -> CollusionResult:
    """Pool alias tables: every query through any colluder is re-linked.

    This is the paper's stated weakness made executable; the anonymity the
    scheme provided against *one* curious server evaporates entirely.
    """
    pooled: Dict[str, str] = {}
    for proxy in proxies:
        pooled.update(proxy.alias_table())
    total = sum(len(p.forwarded) for p in proxies)
    linked = sum(1 for p in proxies for q in p.forwarded
                 if q.alias in pooled)
    return CollusionResult(
        deanonymized=pooled, queries_linked=linked,
        fraction_linked=linked / total if total else 0.0)


def anonymity_set_size(proxy: AliasProxy) -> int:
    """How many users an outside observer must consider per alias.

    With a non-colluding proxy every alias could be any of its registered
    users — the anonymity set is the proxy's whole population.
    """
    return len(proxy.alias_table())
