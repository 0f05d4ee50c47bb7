"""The one quorum read against the per-key loop it replaced.

``tests/storage2/reference.py`` keeps ``ReplicatedStore.get`` as first
written: a probe loop of its own and a ``_settle`` that picks the winner
in each branch.  ``get`` is now the one-key ``get_many``; on the same
seeded fabric it must do exactly what the oracle did — the same
``ReadResult`` or exception type, the same network statistics and
counters, the same holder stores after read-repair — with Byzantine,
crashed and offline holders, degraded reads on and off, bare and
resilient channels, expiring budgets, shedding queues and SWIM attached.
``get(k)`` and ``get_many([k])[k]`` must agree the same way.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
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
    "down": st.lists(st.tuples(st.sampled_from(PEERS),
                               st.sampled_from(("offline", "crash"))),
                     max_size=2),
    "laggard": st.sampled_from([None] + PEERS),
    "degraded": st.booleans(),
    "resilient": st.booleans(),
    # reads under overload mostly fail: draw it off half the time
    "overload": st.sampled_from(("off", "off", "expiring budget",
                                 "shedding queues")),
    "swim": st.booleans(),
    "pace": st.booleans(),
    "reads": st.lists(st.tuples(st.sampled_from(PEERS),
                                st.sampled_from(KEYS + ["ghost"])),
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
    for name, how in s["down"]:
        if how == "crash":
            ring.nodes[name].crash()
        else:
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
    base = {"seed": 3, "fault": None, "liars": frozenset({"p0"}), "down": [],
            "laggard": None, "degraded": False, "resilient": False,
            "overload": "off", "swim": False, "pace": False,
            "reads": [(p, k) for p in ("p2", "p7") for k in KEYS]}
    for change in ({}, {"laggard": "p4"}, {"laggard": "p1"},
                   {"fault": CorruptBlob, "liars": frozenset(PEERS)},
                   {"fault": CorruptBlob, "liars": frozenset({"p1", "p4"})},
                   {"fault": StaleServe, "liars": frozenset({"p1", "p4"})},
                   {"down": [("p1", "crash"), ("p4", "offline"),
                             ("p6", "offline"), ("p8", "crash")]},
                   {"down": [("p1", "offline"), ("p4", "offline"),
                             ("p6", "offline")], "degraded": True,
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
