"""From-scratch cryptographic substrate for the DOSN reproduction.

Every primitive the surveyed systems rely on, implemented on plain Python
integers/bytes (plus :mod:`hashlib` on hash hot paths, proven equivalent to
the from-scratch :mod:`repro.crypto.sha256` by the test suite):

========================  ====================================================
Module                    Primitive
========================  ====================================================
:mod:`~.numbertheory`     primes, modular arithmetic, square roots
:mod:`~.sha256`           SHA-256 from scratch
:mod:`~.hashing`          HMAC, HKDF, hash-to-field, framed digests
:mod:`~.merkle`           Merkle trees + inclusion proofs
:mod:`~.aes`              AES block cipher (FIPS 197)
:mod:`~.symmetric`        SHA-256-CTR AEADs; AES-CTR reference
:mod:`~.groups`           safe-prime Schnorr groups
:mod:`~.rsa`              RSA-OAEP encryption + FDH signatures
:mod:`~.elgamal`          ElGamal encryption
:mod:`~.signatures`       Schnorr signatures
:mod:`~.blind`            Chaum blind RSA signatures
:mod:`~.prf`              2HashDH oblivious PRF
:mod:`~.zkp`              Fiat–Shamir NIZK of a discrete log
:mod:`~.pairing`          Type-1 Tate pairing on a supersingular curve
:mod:`~.abe`              CP-ABE (Bethencourt–Sahai–Waters)
:mod:`~.ibe`              Boneh–Franklin IBE
:mod:`~.ibbe`             Delerablée IBBE (constant-size ciphertexts)
:mod:`~.broadcast`        naive BE + NNL complete-subtree revocation
========================  ====================================================

**This code exists to reproduce a research paper's comparisons.  Parameter
sizes are deliberately small; do not use it to protect real data.**
"""

from repro.crypto import params  # noqa: F401  (re-exported for convenience)
