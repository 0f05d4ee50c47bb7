"""Runnable models of the DOSNs the survey discusses by name.

Each module composes the substrate packages into the architecture of one
surveyed system, reproducing its defining mechanism.  The five that keep
content private seal and open it through one of :mod:`repro.acl`'s
registered schemes (:meth:`~repro.acl.base.AccessControlScheme.seal` /
``unseal``) and place the sealed record with their own mechanism:

==============  =====================  =====================================
System          Scheme                 Defining composition
==============  =====================  =====================================
PeerSoN [16]    ``PublicKeyACL``: a    DHT lookup + asynchronous DHT
                group per author, one  mailboxes
                per mailbox            (:mod:`repro.systems.peerson`)
Safebook [17]   ``SymmetricKeyACL``:   matryoshka friend rings for anonymity
                a group per owner and  + innermost-shell mirrors for
                its graph neighbours   availability
                                       (:mod:`repro.systems.safebook`)
Cachet [18]     ``ABEACL``: one        hybrid DHT/gossip-cache overlay +
                authority per owner    per-post comment keys
                                       (:mod:`repro.systems.cachet`)
Supernova [20]  ``SymmetricKeyACL``:   super-peer index + uptime-tracked
                a group per owner      storekeeper agreements
                                       (:mod:`repro.systems.supernova`)
Diaspora [4]    ``SymmetricKeyACL``:   pod federation to the aspect
                a group per aspect     members' home pods
                                       (:mod:`repro.systems.diaspora`)
Cuckoo [22]     none (public posts)    follower-push (unstructured) +
                                       DHT-pull (structured) microblogging
                                       (:mod:`repro.systems.cuckoo`)
Prpl [15]       none (butler-          per-user butler federating device
                mediated)              storage, butlers in a structured ring
                                       (:mod:`repro.systems.prpl`)
==============  =====================  =====================================

flyByNight [10] lives in :mod:`repro.acl.flybynight` (it is a centralized-
OSN retrofit, not a DOSN) and Persona [14] in :mod:`repro.acl.persona`.
"""

from repro.systems.cachet import CachetNetwork
from repro.systems.cuckoo import CuckooNetwork
from repro.systems.diaspora import DiasporaNetwork
from repro.systems.peerson import PeersonNetwork
from repro.systems.prpl import PrplNetwork
from repro.systems.safebook import SafebookNetwork
from repro.systems.supernova import SupernovaNetwork

__all__ = [
    "CachetNetwork", "CuckooNetwork", "DiasporaNetwork", "PeersonNetwork",
    "PrplNetwork", "SafebookNetwork", "SupernovaNetwork",
]
