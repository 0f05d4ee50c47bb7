"""Cachet: decentralized privacy-preserving social networking with caching.

As the paper describes it (Nilizadeh et al.): Cachet "uses hybrid
structured-unstructured overlay using a DHT-based approach together with
gossip-based caching to achieve high performance" (Section II-B), protects
content with "a hybrid scheme of symmetric key encryption and CP-ABE"
(Section III-F), and binds comments to posts with per-post signing keys
(Section IV-C).

Composition (declared as :data:`CACHET_SPEC`, executed by a
:class:`~repro.stack.pipeline.ProtectionStack`): a per-post comment-key
integrity layer (:mod:`repro.integrity.relations`), a CP-ABE ACL layer
with one :class:`~repro.acl.abe_acl.ABEACL` authority per user, and a
placement layer over
:class:`~repro.overlay.hybrid.HybridOverlay` (DHT + social caches).
"""

from __future__ import annotations

import random as _random
from typing import Dict, List, Sequence, Tuple

import networkx as nx

from repro.acl import ABEACL
from repro.crypto.abe import parse_policy, policy_attributes
from repro.crypto.symmetric import random_key
from repro.exceptions import AccessDeniedError, IntegrityError
from repro.integrity.relations import (Comment, CommentablePost, create_post,
                                       verify_comment, write_comment)
from repro.fabric import Fabric
from repro.overlay.hybrid import HybridFetchResult, HybridOverlay
from repro.stack import (AclLayer, ContentItem, IntegrityLayer, LayerSpec,
                         PlacementLayer, ProtectionStack, SystemSpec,
                         register_system)

CACHET_SPEC = register_system(SystemSpec(
    name="cachet",
    citation="Nilizadeh et al.",
    overlay="hybrid structured/unstructured: DHT + gossip-based social "
            "caches",
    layers=(
        LayerSpec("integrity", "per-post comment signing keys",
                  table1_rows=("Integrity of data relations",),
                  detail="signing key wrapped pairwise for the commenter "
                         "audience (Section IV-C)"),
        LayerSpec("acl", "CP-ABE hybrid encryption",
                  table1_rows=("Attribute based encryption",
                               "Hybrid encryption"),
                  detail="per-owner authority; symmetric content key "
                         "under an attribute policy (Section III-F)"),
        LayerSpec("placement", "hybrid overlay publish",
                  detail="DHT put + gossip caching along social links"),
    )))


class CachetNetwork:
    """A Cachet deployment over a social graph."""

    def __init__(self, graph: nx.Graph, seed: int = 0,
                 level: str = "TOY") -> None:
        self.graph = graph
        self.seed = seed
        self.rng = _random.Random(seed)
        self.fabric = Fabric.create(seed=seed)
        self.sim = self.fabric.sim
        self.network = self.fabric.network
        self.overlay = HybridOverlay(self.fabric, graph)
        self.level = level
        #: per-user ABE authority (users control their own policies)
        self._abe: Dict[str, ABEACL] = {}
        #: pairwise keys used to wrap comment-signing keys
        self._pairwise: Dict[Tuple[str, str], bytes] = {}
        #: post id -> CommentablePost metadata (replicated with the post)
        self._posts: Dict[str, CommentablePost] = {}
        self._comments: Dict[str, List[Comment]] = {}
        self.stack = ProtectionStack([
            IntegrityLayer(post=self._bind_comment_keys,
                           spec=CACHET_SPEC.layers[0]),
            AclLayer(post=self._abe_protect, read=self._abe_unprotect,
                     spec=CACHET_SPEC.layers[1]),
            PlacementLayer(post=self._publish, read=self._fetch,
                           spec=CACHET_SPEC.layers[2]),
        ], spec=CACHET_SPEC, tracer=self.fabric.tracer,
            metrics=self.fabric.metrics)

    def _authority(self, owner: str) -> ABEACL:
        """The owner's authority, with one group: the owner's posts."""
        scheme = self._abe.get(owner)
        if scheme is None:
            # Seeded from (master seed, owner) only: authority creation is
            # order-independent and never perturbs the network RNG stream.
            scheme = ABEACL(
                rng=_random.Random(f"cachet/authority/{self.seed}/{owner}"),
                level=self.level)
            scheme.create_group(owner, [owner])
            self._abe[owner] = scheme
        return scheme

    # -- key management ----------------------------------------------------------

    def grant(self, owner: str, principal: str,
              attributes: Sequence[str]) -> None:
        """Owner issues an attribute key to a friend."""
        scheme = self._authority(owner)
        for attribute in attributes:
            scheme.grant_attribute(principal, attribute)

    def pairwise_key(self, a: str, b: str) -> bytes:
        """The symmetric key a pair shares (comment-key wrap channel)."""
        pair = (min(a, b), max(a, b))
        key = self._pairwise.get(pair)
        if key is None:
            key = random_key(32, self.rng)
            self._pairwise[pair] = key
        return key

    # -- stack layer hooks -------------------------------------------------------

    def _bind_comment_keys(self, item: ContentItem) -> None:
        commenter_keys = {user: self.pairwise_key(item.author, user)
                          for user in item.recipients}
        meta = create_post(item.cid, item.author, item.payload,
                           commenter_keys, level=self.level, rng=self.rng)
        self._posts[item.cid] = meta
        self._comments.setdefault(item.cid, [])

    def _abe_protect(self, item: ContentItem) -> None:
        scheme, policy = self._authority(item.author), item.meta["policy"]
        # The owner runs the authority, so it can always read its own data.
        for attribute in sorted(policy_attributes(parse_policy(policy))):
            scheme.grant_attribute(item.author, attribute)
        # header and blob travel as one DHT object
        item.payload = scheme.seal_with_policy(item.author, item.payload,
                                               policy)

    def _publish(self, item: ContentItem) -> None:
        self.overlay.publish(item.author, item.cid, item.payload)

    def _fetch(self, item: ContentItem) -> None:
        result = self.overlay.fetch(item.reader, item.cid)
        item.meta["fetch"] = result
        item.payload = result.value

    def _abe_unprotect(self, item: ContentItem) -> None:
        item.result = self._authority(item.author).unseal(
            item.author, item.payload, item.reader).decode()

    # -- posting (hybrid ABE + DHT/caching) ------------------------------------------

    def post(self, author: str, post_id: str, text: str, policy: str,
             commenters: Sequence[str] = ()) -> str:
        """Publish: hybrid CP-ABE protection + per-post comment keys.

        The ciphertext travels through the hybrid overlay (DHT +
        gossip-cached); the comment verification key rides in the clear
        inside the post, its signing key wrapped for ``commenters``.
        """
        item = ContentItem(author=author, cid=post_id,
                           payload=text.encode(),
                           recipients=tuple(commenters),
                           meta={"policy": policy})
        self.stack.post(item)
        return post_id

    def read(self, reader: str, author: str,
             post_id: str) -> Tuple[str, HybridFetchResult]:
        """Fetch via caches-then-DHT; decrypt with the reader's ABE key."""
        item = ContentItem(author=author, reader=reader, cid=post_id)
        self.stack.read(item)
        return item.result, item.meta["fetch"]

    # -- comments (relation integrity) -------------------------------------------------

    def comment(self, commenter: str, post_id: str, text: str) -> Comment:
        """Write a comment with the post's embedded signing key."""
        meta = self._posts.get(post_id)
        if meta is None:
            raise AccessDeniedError(f"no post {post_id!r}")
        comment = write_comment(meta, commenter,
                                self.pairwise_key(meta.author, commenter),
                                text.encode(), rng=self.rng)
        verify_comment(meta, comment)
        self._comments[post_id].append(comment)
        return comment

    def verified_comments(self, post_id: str) -> List[str]:
        """All comments that still verify against the post."""
        meta = self._posts[post_id]
        verified = []
        for comment in self._comments.get(post_id, []):
            try:
                verify_comment(meta, comment)
                verified.append(comment.body.decode())
            except IntegrityError:
                continue
        return verified

    def cache_hit_rate(self) -> float:
        """The hybrid overlay's headline performance number."""
        return self.overlay.cache_hit_rate()
