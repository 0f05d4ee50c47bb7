"""Experiment E3 — access-control lifecycle costs (create/join/revoke).

Paper claims reproduced (Section III):

* symmetric: "Adding a user ... means sharing the group key" (1 op) but
  "for the revocation, we need to create a new key and re-encrypt the whole
  data" (O(items) + O(members));
* public key: join requires wrapping history for the newcomer; revocation
  is a list edit;
* ABE: "it is enough to do a single encryption operation to construct a new
  group", but "re-encryptions cause an extra overhead to the access control
  management" on revocation;
* IBBE: "removing a recipient from the list would then have no extra cost".
"""

from __future__ import annotations

import random

import pytest

from _reporting import report_table
from repro.acl import SCHEME_REGISTRY

MEMBERS = 16
ITEMS = 20


def lifecycle_costs(name):
    """Run the canonical lifecycle; return per-phase cost counters."""
    kwargs = {"max_group_size": 64} if name == "ibbe" else {}
    scheme = SCHEME_REGISTRY[name](rng=random.Random(0xE3), **kwargs)
    members = [f"u{i}" for i in range(MEMBERS)]

    scheme.meter.reset()
    scheme.create_group("g", members)
    create_cost = scheme.meter.total("key_distribution", "pub_encrypt",
                                     "sym_encrypt")

    for i in range(ITEMS):
        scheme.publish("g", f"item{i}", b"data")

    # One-time identity provisioning happens before the join phase so the
    # join counter reflects group-membership cost only (the paper's claim
    # is about the group operation, not account creation).
    scheme.register_user("newcomer")
    scheme.meter.reset()
    scheme.add_member("g", "newcomer")
    join_cost = scheme.meter.total("key_distribution", "pub_encrypt",
                                   "sym_encrypt")

    scheme.meter.reset()
    scheme.revoke_member("g", "u3")
    revoke_ops = scheme.meter.total("key_distribution", "pub_encrypt",
                                    "sym_encrypt")
    reencryptions = scheme.meter.counts["reencryption"]
    return create_cost, join_cost, revoke_ops, reencryptions


@pytest.mark.parametrize("name", sorted(SCHEME_REGISTRY))
def test_lifecycle_per_scheme(benchmark, name):
    """Timed lifecycle per scheme (one full create/publish/join/revoke)."""
    benchmark.pedantic(lambda: lifecycle_costs(name), rounds=3,
                       iterations=1)


def test_lifecycle_cost_table(benchmark):
    """E3 table + the paper's qualitative ordering, asserted."""

    def sweep():
        return {name: lifecycle_costs(name)
                for name in sorted(SCHEME_REGISTRY)}

    costs = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [(name, *costs[name]) for name in sorted(costs)]
    report_table(
        "E3_lifecycle",
        f"E3 — lifecycle crypto-op counts ({MEMBERS} members, {ITEMS} items)",
        ["Scheme", "Create group", "Join", "Revoke ops", "Re-encryptions"],
        rows,
        note=("Paper's ordering holds: IBBE revocation free; symmetric and "
              "ABE pay a full re-encryption of stored items; symmetric join "
              "is a single key distribution."))

    sym = costs["symmetric"]
    pk = costs["public-key"]
    abe = costs["cp-abe"]
    ibbe = costs["ibbe"]
    # symmetric: join = 1 distribution; revoke re-encrypts all items
    assert sym[1] == 1
    assert sym[3] == ITEMS
    # public-key: join wraps history, revoke free
    assert pk[1] == ITEMS
    assert pk[3] == 0
    # ABE: revocation triggers re-keying + full re-encryption
    assert abe[3] == ITEMS
    assert abe[1] == 1  # join = issue one key
    # IBBE: both join and revoke are free
    assert ibbe[1] == 0 and ibbe[2] == 0 and ibbe[3] == 0


def test_revocation_scales_with_history(benchmark):
    """Symmetric/ABE revocation cost grows with stored items; IBBE's does
    not — the crossover argument for IBBE in archival workloads."""

    def sweep():
        rows = []
        for items in (5, 20, 80):
            for name in ("symmetric", "ibbe"):
                kwargs = {"max_group_size": 64} if name == "ibbe" else {}
                scheme = SCHEME_REGISTRY[name](rng=random.Random(items),
                                               **kwargs)
                scheme.create_group("g", [f"u{i}" for i in range(8)])
                for i in range(items):
                    scheme.publish("g", f"i{i}", b"d")
                scheme.meter.reset()
                scheme.revoke_member("g", "u1")
                rows.append((name, items,
                             scheme.meter.counts["reencryption"]))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sym_curve = [r for n, i, r in rows if n == "symmetric"]
    ibbe_curve = [r for n, i, r in rows if n == "ibbe"]
    assert sym_curve == [5, 20, 80]
    assert ibbe_curve == [0, 0, 0]
    report_table(
        "E3b_revocation", "E3b — revocation re-encryptions vs stored items",
        ["Scheme", "Stored items", "Re-encryptions"], rows,
        note="Symmetric revocation is O(history); IBBE revocation is free.")
