"""Ciphertext-Policy Attribute-Based Encryption (Bethencourt–Sahai–Waters).

Section III-D of the paper: attributes like ``relative`` or ``doctor`` are
embedded in users' secret keys, and every ciphertext carries an *access
structure* — "any logical expression over the selected attributes, for
instance ('relative' OR 'painter') or ('relative' AND 'doctor')".  This is
the scheme behind Persona and Cachet.

Implemented faithfully from the CP-ABE paper (SP'07) over the Type-1 pairing
in :mod:`repro.crypto.pairing`:

* setup:    ``pk = (g, h=g^beta, e(g,g)^alpha)``, ``msk = (beta, g^alpha)``
* keygen:   ``D = g^((alpha+r)/beta)``, per-attribute
  ``D_j = g^r * H(j)^{r_j}``, ``D'_j = g^{r_j}``
* encrypt:  secret ``s`` is Shamir-shared down the access tree; leaves carry
  ``C_y = g^{q_y(0)}`` and ``C'_y = H(att)^{q_y(0)}``
* decrypt:  pairings at satisfied leaves, Lagrange interpolation up the tree.

The policy language supports ``and`` / ``or`` / parentheses and explicit
``k of (...)`` threshold gates, e.g. ``"2 of (family, doctor, colleague)"``.
"""

from __future__ import annotations

import random as _random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.crypto.hashing import hkdf
from repro.crypto.numbertheory import (lagrange_coefficient, modinv,
                                       poly_eval, random_polynomial)
from repro.crypto.pairing import G1Element, GTElement, PairingGroup, pairing_group
from repro.crypto.symmetric import AuthenticatedCipher
from repro.exceptions import DecryptionError, PolicyError

_DEFAULT_RNG = _random.Random(0xABE)
#: attribute hashes a :class:`CPABE` context remembers (least recently used
#: first out); one epoch attribute per revocation keeps the set growing
ATTRIBUTE_MEMO = 256


# --------------------------------------------------------------------------
# Access-tree policy language
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyLeaf:
    """A leaf node demanding one attribute."""

    attribute: str


@dataclass(frozen=True)
class PolicyGate:
    """An interior ``threshold``-of-``children`` gate.

    AND is ``threshold == len(children)``; OR is ``threshold == 1``.
    """

    threshold: int
    children: Tuple["PolicyNode", ...]

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= len(self.children):
            raise PolicyError(
                f"threshold {self.threshold} invalid for "
                f"{len(self.children)} children")


PolicyNode = Union[PolicyLeaf, PolicyGate]

_TOKEN_RE = re.compile(
    r"\s*(\(|\)|,|\bAND\b|\bOR\b|\band\b|\bor\b|\bof\b|\bOF\b"
    r"|[A-Za-z0-9_:.#@\-]+)")


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolicyError(f"cannot tokenize policy near {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the policy grammar.

    ``expr := term (('or') term)*``
    ``term := factor (('and') factor)*``
    ``factor := attribute | '(' expr ')' | INT 'of' '(' expr (',' expr)* ')'``
    """

    def __init__(self, tokens: List[str]) -> None:
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> Optional[str]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise PolicyError("unexpected end of policy")
        self._pos += 1
        return token

    def _expect(self, token: str) -> None:
        got = self._next()
        if got.lower() != token:
            raise PolicyError(f"expected {token!r}, got {got!r}")

    def parse(self) -> PolicyNode:
        node = self._expr()
        if self._peek() is not None:
            raise PolicyError(f"trailing tokens: {self._tokens[self._pos:]}")
        return node

    def _expr(self) -> PolicyNode:
        children = [self._term()]
        while self._peek() is not None and self._peek().lower() == "or":
            self._next()
            children.append(self._term())
        if len(children) == 1:
            return children[0]
        return PolicyGate(threshold=1, children=tuple(children))

    def _term(self) -> PolicyNode:
        children = [self._factor()]
        while self._peek() is not None and self._peek().lower() == "and":
            self._next()
            children.append(self._factor())
        if len(children) == 1:
            return children[0]
        return PolicyGate(threshold=len(children), children=tuple(children))

    def _factor(self) -> PolicyNode:
        token = self._next()
        if token == "(":
            node = self._expr()
            self._expect(")")
            return node
        if token.isdigit() and self._peek() is not None \
                and self._peek().lower() == "of":
            self._next()  # 'of'
            self._expect("(")
            children = [self._expr()]
            while self._peek() == ",":
                self._next()
                children.append(self._expr())
            self._expect(")")
            return PolicyGate(threshold=int(token), children=tuple(children))
        if token in (")", ",") or token.lower() in ("and", "or", "of"):
            raise PolicyError(f"unexpected {token!r} in policy")
        return PolicyLeaf(attribute=token)


def parse_policy(policy: Union[str, PolicyNode]) -> PolicyNode:
    """Parse a policy string into an access tree (idempotent on trees)."""
    if isinstance(policy, (PolicyLeaf, PolicyGate)):
        return policy
    tokens = _tokenize(policy)
    if not tokens:
        raise PolicyError("empty policy")
    return _Parser(tokens).parse()


def policy_attributes(node: PolicyNode) -> FrozenSet[str]:
    """The set of attribute names mentioned anywhere in the tree."""
    if isinstance(node, PolicyLeaf):
        return frozenset([node.attribute])
    result: FrozenSet[str] = frozenset()
    for child in node.children:
        result |= policy_attributes(child)
    return result


def policy_satisfied(node: PolicyNode, attributes: Sequence[str]) -> bool:
    """Whether a set of attributes satisfies the access tree."""
    have = set(attributes)
    if isinstance(node, PolicyLeaf):
        return node.attribute in have
    satisfied = sum(1 for child in node.children
                    if policy_satisfied(child, attributes))
    return satisfied >= node.threshold


# --------------------------------------------------------------------------
# The CP-ABE scheme
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ABEPublicKey:
    """Public parameters ``(g, h = g^beta, e(g,g)^alpha)``."""

    group: PairingGroup
    g: G1Element
    h: G1Element
    e_gg_alpha: GTElement


@dataclass(frozen=True)
class ABEMasterKey:
    """Master secret ``(beta, g^alpha)`` held by the attribute authority."""

    beta: int
    g_alpha: G1Element


@dataclass(frozen=True)
class ABESecretKey:
    """A user's key for an attribute set."""

    attributes: FrozenSet[str]
    d: G1Element
    components: Dict[str, Tuple[G1Element, G1Element]]  # attr -> (D_j, D'_j)


@dataclass(frozen=True)
class _LeafCiphertext:
    c_y: G1Element      # g^{q_y(0)}
    c_y_prime: G1Element  # H(att)^{q_y(0)}


@dataclass(frozen=True)
class ABECiphertext:
    """A CP-ABE ciphertext: the blinded GT payload plus per-leaf shares."""

    policy: PolicyNode
    c_tilde: GTElement  # m * e(g,g)^{alpha s}
    c: G1Element        # h^s
    leaves: Dict[Tuple[int, ...], _LeafCiphertext]  # tree-path -> components


class CPABE:
    """A CP-ABE context bound to one pairing parameter set."""

    def __init__(self, level: str = "TOY") -> None:
        self.group = pairing_group(level)
        # H(attribute) memoised per context: a revocation re-keys every
        # survivor and re-encrypts the back catalogue under ONE new epoch
        # attribute, which would otherwise be hashed to the curve each time
        self._hash_attribute = lru_cache(ATTRIBUTE_MEMO)(self._hash_attribute)

    def _hash_attribute(self, attribute: str) -> G1Element:
        return self.group.hash_to_g1(b"repro/abe/attr/" + attribute.encode())

    def setup(self, rng: Optional[_random.Random] = None
              ) -> Tuple[ABEPublicKey, ABEMasterKey]:
        """Generate public parameters and the master secret key."""
        rng = rng or _DEFAULT_RNG
        g = self.group.generator
        alpha = self.group.random_scalar(rng)
        beta = self.group.random_scalar(rng)
        e_gg = self.group.pair(g, g)
        pk = ABEPublicKey(group=self.group, g=g, h=g ** beta,
                          e_gg_alpha=e_gg ** alpha)
        return pk, ABEMasterKey(beta=beta, g_alpha=g ** alpha)

    def keygen(self, pk: ABEPublicKey, msk: ABEMasterKey,
               attributes: Sequence[str],
               rng: Optional[_random.Random] = None) -> ABESecretKey:
        """Issue a secret key for an attribute set."""
        rng = rng or _DEFAULT_RNG
        q = self.group.q
        r = self.group.random_scalar(rng)
        g_r = pk.g ** r
        d = (msk.g_alpha * g_r) ** modinv(msk.beta, q)
        components: Dict[str, Tuple[G1Element, G1Element]] = {}
        for attribute in attributes:
            r_j = self.group.random_scalar(rng)
            components[attribute] = (
                g_r * (self._hash_attribute(attribute) ** r_j),
                pk.g ** r_j,
            )
        return ABESecretKey(attributes=frozenset(attributes), d=d,
                            components=components)

    # -- encryption --------------------------------------------------------

    def _share_secret(self, node: PolicyNode, secret: int,
                      path: Tuple[int, ...], rng: _random.Random,
                      out: Dict[Tuple[int, ...], Tuple[PolicyLeaf, int]]) -> None:
        """Shamir-share ``secret`` down the access tree, collecting leaf shares."""
        if isinstance(node, PolicyLeaf):
            out[path] = (node, secret)
            return
        q = self.group.q
        poly = random_polynomial(node.threshold - 1, secret, q, rng)
        for index, child in enumerate(node.children, start=1):
            self._share_secret(child, poly_eval(poly, index, q),
                               path + (index,), rng, out)

    def encrypt_element(self, pk: ABEPublicKey, message: GTElement,
                        policy: Union[str, PolicyNode],
                        rng: Optional[_random.Random] = None) -> ABECiphertext:
        """Encrypt a GT element under an access policy."""
        rng = rng or _DEFAULT_RNG
        tree = parse_policy(policy)
        s = self.group.random_scalar(rng)
        shares: Dict[Tuple[int, ...], Tuple[PolicyLeaf, int]] = {}
        self._share_secret(tree, s, (), rng, shares)
        leaves = {
            path: _LeafCiphertext(
                c_y=pk.g ** share,
                c_y_prime=self._hash_attribute(leaf.attribute) ** share)
            for path, (leaf, share) in shares.items()
        }
        return ABECiphertext(policy=tree,
                             c_tilde=message * (pk.e_gg_alpha ** s),
                             c=pk.h ** s, leaves=leaves)

    # -- decryption --------------------------------------------------------

    def _decrypt_node(self, node: PolicyNode, path: Tuple[int, ...],
                      ct: ABECiphertext, sk: ABESecretKey
                      ) -> Optional[GTElement]:
        """Recursive DecryptNode: ``e(g,g)^{r * q_node(0)}`` or None."""
        if isinstance(node, PolicyLeaf):
            if node.attribute not in sk.components:
                return None
            d_j, d_j_prime = sk.components[node.attribute]
            leaf_ct = ct.leaves[path]
            return self.group.pair_product([(d_j, leaf_ct.c_y)],
                                           [(d_j_prime, leaf_ct.c_y_prime)])
        results: List[Tuple[int, GTElement]] = []
        for index, child in enumerate(node.children, start=1):
            if len(results) == node.threshold:
                break
            value = self._decrypt_node(child, path + (index,), ct, sk)
            if value is not None:
                results.append((index, value))
        if len(results) < node.threshold:
            return None
        indices = [i for i, _ in results]
        acc = self.group.one_gt()
        for i, value in results:
            coeff = lagrange_coefficient(i, indices, 0, self.group.q)
            acc = acc * (value ** coeff)
        return acc

    def decrypt_element(self, ct: ABECiphertext,
                        sk: ABESecretKey) -> GTElement:
        """Recover the GT element; raises when attributes don't satisfy."""
        a = self._decrypt_node(ct.policy, (), ct, sk)
        if a is None:
            raise DecryptionError(
                "attribute set does not satisfy the ciphertext policy")
        # e(C, D) = e(h^s, g^{(alpha+r)/beta}) = e(g,g)^{s(alpha+r)}
        blinding = self.group.pair(ct.c, sk.d) / a
        return ct.c_tilde / blinding

    # -- hybrid byte-level API ----------------------------------------------

    def encrypt_bytes(self, pk: ABEPublicKey, message: bytes,
                      policy: Union[str, PolicyNode],
                      rng: Optional[_random.Random] = None
                      ) -> Tuple[ABECiphertext, bytes]:
        """KEM/DEM hybrid: ABE-wrap a random GT key, AEAD the payload."""
        rng = rng or _DEFAULT_RNG
        kem = self.group.random_gt(rng)
        header = self.encrypt_element(pk, kem, policy, rng)
        key = hkdf(kem.to_bytes(), 32, info=b"repro/abe/kem")
        return header, AuthenticatedCipher(key).encrypt(message, rng=rng)

    def decrypt_bytes(self, header: ABECiphertext, blob: bytes,
                      sk: ABESecretKey) -> bytes:
        """Invert :meth:`encrypt_bytes`."""
        kem = self.decrypt_element(header, sk)
        key = hkdf(kem.to_bytes(), 32, info=b"repro/abe/kem")
        return AuthenticatedCipher(key).decrypt(blob)
