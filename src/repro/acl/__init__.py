"""Data privacy & access control management (Section III / Table I).

Six solutions from the paper's Table I, one module each, all conforming to
:class:`repro.acl.base.AccessControlScheme` where the group lifecycle
applies:

===============================  ==========================================
Table I row                      Implementation
===============================  ==========================================
Information substitution         :mod:`repro.acl.substitution`
Symmetric key encryption         :class:`repro.acl.symmetric_acl.SymmetricKeyACL`
Public key encryption            :class:`repro.acl.publickey_acl.PublicKeyACL`
Attribute based encryption       :class:`repro.acl.abe_acl.ABEACL`
Identity based broadcast enc.    :class:`repro.acl.ibbe_acl.IBBEACL`
Hybrid encryption                :class:`repro.acl.hybrid_acl.HybridACL`
===============================  ==========================================

Plus the two named systems the paper singles out:
:mod:`repro.acl.hummingbird` (PRF/OPRF hashtag keys) and
:mod:`repro.acl.pad` (Frientegrity's ACL-as-PAD).
"""

from repro.acl.abe_acl import ABEACL
from repro.acl.base import AccessControlScheme, CostMeter
from repro.acl.hybrid_acl import HybridACL
from repro.acl.ibbe_acl import IBBEACL
from repro.acl.publickey_acl import PublicKeyACL
from repro.acl.symmetric_acl import SymmetricKeyACL

#: All lifecycle-capable schemes, keyed by their registry name
#: (used by experiment E3 and the Table I generator).
SCHEME_REGISTRY = {
    SymmetricKeyACL.scheme_name: SymmetricKeyACL,
    PublicKeyACL.scheme_name: PublicKeyACL,
    ABEACL.scheme_name: ABEACL,
    IBBEACL.scheme_name: IBBEACL,
    HybridACL.scheme_name: HybridACL,
}

__all__ = [
    "ABEACL",
    "AccessControlScheme",
    "CostMeter",
    "HybridACL",
    "IBBEACL",
    "PublicKeyACL",
    "SCHEME_REGISTRY",
    "SymmetricKeyACL",
]
