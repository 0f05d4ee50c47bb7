"""Node-ID certificates: the classic secure-DHT identity defense.

Castro et al. (OSDI 2002) and the DOSN storage layers that assume a
"secure DHT lookup" (DECENT, Cachet) all rest on the same primitive: a
node's overlay identifier must be *certified* — derived by hashing
identity material the node cannot choose (``id = H(pubkey)``) and bound
to the node with a signature proving possession of the matching private
key.  An adversary can then neither choose its position on the ring (sit
exactly in front of a victim key) nor fabricate identities faster than
it can generate keys it actually controls.

:class:`IdCertifier` plays the offline certification authority of the
scheme.  It derives one deterministic Schnorr keypair per node name
(seeded from the name, never from a simulator RNG — installing
certification moves no experiment's random stream), fixes the node's
*identity material* — the byte string whose hash is the certified id —
and signs the ``(name, id)`` binding.  By default the material is the
public key itself, exactly the real scheme.  The simulated overlays
pre-date certification and already derive positions by hashing a
name-derived byte string (``repro/chord/<name>`` / ``repro/kad/<name>``);
passing that derivation as ``material_of`` makes the certified id equal
the overlay position, with the same security property: an id is valid
only together with a hash preimage, and preimages cannot be chosen.

A claim check verifies the certificate once (real Schnorr verification
over the TOY group; cached — certificates are immutable) and then
compares the claimed identifier against the certified one, so both
attack shapes fail:

* **chosen ID** — the claimed id was picked adjacent to the key; no
  identity material the adversary holds hashes to it;
* **unverifiable pubkey** — a fabricated key/signature pair fails
  Schnorr verification, so the certificate itself is rejected.

A certified-but-*lying* peer (true id, malicious routing answer) passes
this check by design; that is what disjoint-path voting is for (see
:mod:`repro.adversary.defense`).
"""

from __future__ import annotations

import hashlib
import random as _random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.crypto.signatures import (SchnorrPublicKey, SchnorrSignature,
                                     generate_schnorr_keypair)

__all__ = ["NodeIdCertificate", "IdCertifier", "derive_node_id"]


def derive_node_id(material: bytes, bits: int) -> int:
    """The certified identifier: ``H(material)`` mapped into the id space.

    ``material`` is the node's unforgeable identity bytes — the public
    key in the real scheme, the overlay's name derivation in the
    simulation (see the module docstring).
    """
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") % (1 << bits)


def _cert_message(name: str, node_id: int, bits: int) -> bytes:
    return (b"repro/nodecert|" + name.encode() + b"|"
            + node_id.to_bytes(8, "big") + bytes([bits]))


@dataclass(frozen=True)
class NodeIdCertificate:
    """One node's identity binding: ``(name, material, id, signature)``."""

    name: str
    public_key: SchnorrPublicKey
    material: bytes
    node_id: int
    bits: int
    signature: SchnorrSignature

    def verify(self) -> bool:
        """Both halves of the binding: ``id == H(material)`` and the
        self-signature proves possession of the matching private key."""
        if self.node_id != derive_node_id(self.material, self.bits):
            return False
        return self.public_key.verify(
            _cert_message(self.name, self.node_id, self.bits),
            self.signature)


class IdCertifier:
    """Per-overlay certificate registry (one id space each).

    Keypairs are generated lazily on first use, deterministically from
    the node *name* — a bare (undefended) experiment that never consults
    certificates never pays for key generation, and no simulator RNG is
    ever touched.  ``material_of`` overrides the identity material
    (default: the public key bytes); the adversary model passes the
    overlay's own position derivation so certified ids equal ring
    positions.
    """

    def __init__(self, bits: int, level: str = "TOY",
                 material_of: Optional[Callable[[str], bytes]] = None
                 ) -> None:
        self.bits = bits
        self.level = level
        self.material_of = material_of
        self._certs: Dict[str, NodeIdCertificate] = {}
        self._verified: Dict[str, bool] = {}

    def certificate(self, name: str) -> NodeIdCertificate:
        """The (lazily issued) certificate for ``name``."""
        cert = self._certs.get(name)
        if cert is None:
            rng = _random.Random(f"repro/nodecert/{self.bits}/{name}")
            signer = generate_schnorr_keypair(self.level, rng)
            public = signer.public_key
            material = public.to_bytes() if self.material_of is None \
                else self.material_of(name)
            node_id = derive_node_id(material, self.bits)
            signature = signer.sign(
                _cert_message(name, node_id, self.bits), rng)
            cert = NodeIdCertificate(name=name, public_key=public,
                                     material=material, node_id=node_id,
                                     bits=self.bits, signature=signature)
            self._certs[name] = cert
        return cert

    def certified_id(self, name: str) -> int:
        """The certified overlay identifier of ``name``."""
        return self.certificate(name).node_id

    def check(self, name: str, claimed_id: int) -> bool:
        """Verify a routing response's id claim for ``name``.

        The certificate is verified once per name (cached); the claim
        passes only when it equals the certified identifier.
        """
        verified = self._verified.get(name)
        if verified is None:
            verified = self.certificate(name).verify()
            self._verified[name] = verified
        return verified and claimed_id == self.certificate(name).node_id
