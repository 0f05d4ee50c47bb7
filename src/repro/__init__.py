"""repro — reproduction of *Security and Privacy of Distributed Online
Social Networks* (Taheri Boshrooyeh, Küpçü, Özkasap; ICDCS 2015).

The paper is a survey; this library is the system it describes but never
builds: every surveyed security mechanism implemented and measurable on a
simulated peer-to-peer substrate.

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.crypto`    — from-scratch cryptographic substrate
* :mod:`repro.acl`       — data privacy / access control (Section III)
* :mod:`repro.integrity` — data integrity mechanisms (Section IV)
* :mod:`repro.search`    — secure social search (Section V)
* :mod:`repro.overlay`   — DOSN architecture substrates (Section II)
* :mod:`repro.dosn`      — the composed social network + exposure metrics
* :mod:`repro.workloads` — synthetic graphs and activity traces

Quick start::

    from repro.dosn import DosnNetwork
    net = DosnNetwork(architecture="dht", seed=7)
    net.add_user("alice"); net.add_user("bob")
    net.befriend("alice", "bob")
    cid = net.post("alice", "hello distributed world!")
    print(net.feed("bob").items[0].post.text)

**Security notice**: the crypto here exists to reproduce a paper's
comparisons at laptop scale.  Never use it to protect real data.
"""

__version__ = "1.0.0"

from repro import exceptions  # noqa: F401
from repro.fabric import Fabric  # noqa: F401

__all__ = ["Fabric", "exceptions", "__version__"]
