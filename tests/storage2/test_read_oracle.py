"""The one quorum read against the per-key loop it replaced.

``tests/storage2/reference.py`` keeps ``ReplicatedStore.get`` as first
written: a probe loop of its own and a ``_settle`` that picks the winner
in each branch.  ``get`` is now the one-key ``get_many``; on the same
seeded fabric it must do exactly what the oracle did — the same
``ReadResult`` or exception type, the same network statistics and
counters, the same holder stores after read-repair — with Byzantine and
offline holders, degraded reads on and off, bare and resilient channels,
expiring budgets, shedding queues and SWIM attached.
``get(k)`` and ``get_many([k])[k]`` must agree the same way.

The oracle plans its probes from ``key in node.store``; ``get_many``
probes every holder and reads only the replies.  The two part only where
a holder lacks a key it is asked for (a crashed holder, or a key nobody
wrote), so no scenario here has either: the plain tests at the end and
``tests/test_reply_rule.py`` cover those reads.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError, StorageError
from repro.fabric import Fabric
from repro.faults import (CorruptBlob, Equivocate, FaultPlan, OverloadConfig,
                          ServiceConfig, StaleServe)
from repro.membership import SwimMembership
from repro.overlay.chord import ChordRing
from repro.storage2 import ReplicatedStore, ReplicationConfig

from tests.storage2 import reference

PEERS = [f"p{i}" for i in range(10)]
KEYS = [f"k{i}" for i in range(4)]
OVERLOADS = {
    "off": None,
    # a budget one or two probes long: reads stop issuing and expire
    "expiring budget": OverloadConfig(service=None, op_budget=0.05,
                                      retry_budget=False,
                                      adaptive_timeout=False),
    # one-slot queues on a frozen clock: back-to-back reads get shed
    "shedding queues": OverloadConfig(
        service=ServiceConfig(service_time=0.05, queue_limit=1),
        op_budget=None),
}

SCENARIO = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 16),
    "fault": st.sampled_from((None, StaleServe, Equivocate, CorruptBlob)),
    "liars": st.frozensets(st.sampled_from(PEERS), min_size=1, max_size=4),
    "down": st.lists(st.sampled_from(PEERS), max_size=2),
    "laggard": st.sampled_from([None] + PEERS),
    "degraded": st.booleans(),
    "resilient": st.booleans(),
    # reads under overload mostly fail: draw it off half the time
    "overload": st.sampled_from(("off", "off", "expiring budget",
                                 "shedding queues")),
    "swim": st.booleans(),
    "pace": st.booleans(),
    "reads": st.lists(st.tuples(st.sampled_from(PEERS),
                                st.sampled_from(KEYS)),
                      min_size=1, max_size=6),
})


def _world(store_cls, s):
    """A ring, a store and its three-version history, from ``s`` alone."""
    plan = FaultPlan(seed=s["seed"])
    if s["fault"] is not None:
        plan.add(s["fault"](holders=set(s["liars"])))
    fabric = Fabric.create(seed=s["seed"], faults=plan,
                           resilient=s["resilient"])
    ring = ChordRing(fabric, replication=3)
    for name in PEERS:
        ring.add_node(name)
    ring.build()
    if s["swim"]:
        membership = SwimMembership(fabric)
        for name in PEERS:
            membership.register(name)
        membership.start()
    store = store_cls(ring, ReplicationConfig(
        n=3, r=2, w=2, degraded_reads=s["degraded"]))
    for version in (1, 2, 3):
        if version == 3 and s["laggard"]:
            ring.nodes[s["laggard"]].go_offline()  # misses v3: read-repair
        for key in KEYS:
            try:
                store.put("p0", key, f"{key} v{version}".encode())
            except ReproError:
                pass
        fabric.sim.run(until=fabric.sim.now + 1.0)
    if s["laggard"]:
        ring.nodes[s["laggard"]].go_online()
    for name in s["down"]:
        ring.nodes[name].go_offline()
    if s["swim"]:  # long enough for SWIM to suspect or confirm the downed
        fabric.sim.run(until=fabric.sim.now + 12.0)
    if OVERLOADS[s["overload"]] is not None:
        # installed after set-up, as E18 does, so the writes all land
        fabric.install_overload(OVERLOADS[s["overload"]])
    return fabric, ring, store


def _get(store, reader, key):
    return store.get(reader, key)


def _get_many(store, reader, key):
    value = store.get_many(reader, [key])[key]
    if isinstance(value, Exception):
        raise value
    return value


def _state(fabric, ring, store, read, reader, key):
    try:
        outcome = read(store, reader, key)
    except ReproError as exc:
        outcome = type(exc)
    return (outcome, fabric.network.stats.summary(),
            [(i.name, i.labels, i.value) for i in fabric.metrics],
            {name: dict(node.store) for name, node in ring.nodes.items()})


def _agree(s, old, new):
    """Replay ``s`` through two worlds, comparing after every read."""
    old_world = _world(old[0], s)
    new_world = _world(new[0], s)
    outcomes = []
    for reader, key in s["reads"]:
        expected = _state(*old_world, old[1], reader, key)
        assert _state(*new_world, new[1], reader, key) == expected
        outcomes.append(expected[0])
        if s["pace"]:
            for fabric, _, _ in (old_world, new_world):
                fabric.sim.run(until=fabric.sim.now + 0.5)
    return outcomes


BASE = {"seed": 3, "fault": None, "liars": frozenset({"p0"}), "down": [],
        "laggard": None, "degraded": False, "resilient": False,
        "overload": "off", "swim": False, "pace": False}


ORACLE = settings(max_examples=100, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@ORACLE
@given(SCENARIO)
def test_get_equals_the_per_key_oracle(s):
    _agree(s, (reference.ReferenceStore, _get), (ReplicatedStore, _get))


@ORACLE
@given(SCENARIO)
def test_get_equals_the_one_key_batch(s):
    _agree(s, (ReplicatedStore, _get), (ReplicatedStore, _get_many))


def test_the_scenarios_reach_every_outcome():
    """The oracle's pinned scenarios serve, degrade, repair and fail in
    each of the ways a read can."""
    seen = set()
    base = {**BASE, "reads": [(p, k) for p in ("p2", "p7") for k in KEYS]}
    for change in ({}, {"laggard": "p4"}, {"laggard": "p1"},
                   {"fault": CorruptBlob, "liars": frozenset(PEERS)},
                   {"fault": CorruptBlob, "liars": frozenset({"p1", "p4"})},
                   {"fault": StaleServe, "liars": frozenset({"p1", "p4"})},
                   {"down": ["p1", "p4", "p6", "p8"]},
                   {"down": ["p1", "p4", "p6"], "degraded": True,
                    "resilient": True, "swim": True},
                   {"overload": "expiring budget"},
                   {"overload": "shedding queues"}):
        scenario = {**base, **change}
        for outcome in _agree(scenario, (reference.ReferenceStore, _get),
                              (ReplicatedStore, _get)):
            if isinstance(outcome, type):
                seen.add(outcome.__name__)
            else:
                seen.add("degraded" if outcome.degraded else "served")
                seen.update(["repaired"] * bool(outcome.repaired)
                            + ["rejected"] * bool(outcome.rejected))
    assert seen >= {"served", "degraded", "repaired", "rejected",
                    "StorageError", "ReplicaIntegrityError",
                    "DeadlineExceededError", "OverloadedError"}, seen


# -- reads the oracle no longer draws: a holder asked for a key it lacks ---

def test_a_key_nobody_wrote_costs_a_probe_per_holder():
    fabric, _, store = _world(ReplicatedStore, BASE)
    sent = fabric.network.stats.messages
    with pytest.raises(StorageError, match="no reachable replica holds it"):
        store.get("p2", "ghost")
    # three holders answer ok with nothing: a request and a reply each
    assert fabric.network.stats.messages - sent == 2 * 3
    assert fabric.network.stats.hedges == 2


@pytest.mark.parametrize("degraded", [False, True])
def test_crashed_holders_are_probed_and_short_the_quorum(degraded):
    fabric, ring, store = _world(ReplicatedStore,
                                 {**BASE, "degraded": degraded})
    first, second, third = store.holders_of("k0")
    ring.nodes[first].crash()
    ring.nodes[second].crash()
    reader = next(p for p in PEERS if p not in (first, second, third))
    sent = fabric.network.stats.messages
    if degraded:
        result = store.get(reader, "k0")
        assert (result.degraded, result.holder, result.version) \
            == (True, third, 3)
    else:
        with pytest.raises(StorageError, match="quorum for 'k0' not met"):
            store.get(reader, "k0")
    # two requests lost to crashed holders, one answered round trip
    assert fabric.network.stats.messages - sent == 1 + 1 + 2
    assert fabric.metrics.get_counter_value(
        "net.rpc_failures", kind="quorum_read", cause="offline",
        direction="request") == 2
