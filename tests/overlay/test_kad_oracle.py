"""Kademlia's bucket walk, per-lookup distances and one-pass bootstrap
against the code they replaced.

``tests/overlay/reference.py`` keeps ``observe``, ``closest_known``,
``bootstrap`` and ``_iterate`` as first written: every answer sorts every
known peer, every sort key re-hashes its name, and ``bootstrap`` buckets
one peer at a time.  On the same seeded fabric the new code must do
exactly what the oracle did — the same ``KadLookupResult`` or exception
type, network statistics, counters, spans, RNG states, stores and bucket
dicts (insertion order included) after every operation — with loss,
offline peers, expiring budgets, resilient channels, eclipse and drop
adversaries (bare, certified and defended), repeated bootstraps and
contacts observed by hand.
"""

import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import AdversaryConfig, AdversaryModel, DefenseConfig
from repro.exceptions import ReproError
from repro.fabric import Fabric
from repro.faults import OverloadConfig
from repro.overlay import kademlia
from repro.overlay.kademlia import KademliaNode, KademliaOverlay, XorDistances

from tests.overlay import reference

MAX_PEERS = 24
NAMES = [f"p{i}" for i in range(MAX_PEERS)]
#: content keys, plus peer names: a key equal to a peer's name targets
#: that peer's id (the start's own id when it is the start's name)
KEYS = ["k0", "k1", "k2"] + NAMES
ADVERSARIES = {
    "off": None,
    # forged closest sets with ids chosen next to the key: what a bare
    # client ranks wherever the forger placed them
    "eclipse": AdversaryConfig(fraction=0.3,
                               behaviors=("eclipse", "chosen_id")),
    # forged closest sets under the accomplices' true ids
    "eclipse, true ids": AdversaryConfig(fraction=0.3,
                                         behaviors=("eclipse",)),
    "drop": AdversaryConfig(fraction=0.3, behaviors=("drop",)),
    "eclipse, defended": AdversaryConfig(
        fraction=0.3, behaviors=("eclipse", "chosen_id"),
        defense=DefenseConfig()),
    "drop, defended": AdversaryConfig(fraction=0.3, behaviors=("drop",),
                                      defense=DefenseConfig()),
}
#: a budget a few FIND rounds long: lookups run out of it
EXPIRING = OverloadConfig(service=None, op_budget=0.05, retry_budget=False,
                          adaptive_timeout=False)

OP = st.tuples(st.sampled_from(("lookup", "lookup", "put", "get", "get",
                                "observe", "bootstrap")),
               st.integers(0, MAX_PEERS - 1), st.sampled_from(KEYS))
SCENARIO = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 16),
    "n": st.integers(2, MAX_PEERS),
    "k": st.sampled_from((1, 2, 8, 20)),
    "alpha": st.sampled_from((1, 3)),
    "loss": st.sampled_from((0.0, 0.0, 0.2)),
    "resilient": st.booleans(),
    "budget": st.booleans(),
    "adversary": st.sampled_from(sorted(ADVERSARIES)),
    "tracing": st.booleans(),
    "observed": st.lists(st.tuples(st.integers(0, MAX_PEERS - 1),
                                   st.integers(0, MAX_PEERS - 1)),
                         max_size=6),
    "bootstraps": st.integers(0, 2),
    "offline": st.frozensets(st.integers(0, MAX_PEERS - 1), max_size=4),
    "ops": st.lists(OP, min_size=1, max_size=8),
})


def _world(overlay_cls, s):
    """An overlay and its fabric, built from ``s`` alone."""
    fabric = Fabric.create(
        seed=s["seed"], loss_rate=s["loss"], resilient=s["resilient"],
        tracing=s["tracing"], overload=EXPIRING if s["budget"] else None,
        adversary=ADVERSARIES[s["adversary"]])
    overlay = overlay_cls(fabric)
    names = NAMES[:s["n"]]
    for name in names:
        overlay.add_node(name)
    for i, j in s["observed"]:  # contacts before (or instead of) bootstrap
        overlay.nodes[names[i % s["n"]]].observe(names[j % s["n"]])
    for _ in range(s["bootstraps"]):
        overlay.bootstrap()
    for i in s["offline"]:
        overlay.nodes[names[i % s["n"]]].go_offline()
    return fabric, overlay


def _run(overlay, n, op):
    kind, i, key = op
    start = NAMES[i % n]
    if kind == "lookup":
        return overlay.lookup(start, key)
    if kind == "put":
        return overlay.put(start, key, f"{key} from {start}".encode())
    if kind == "get":
        return overlay.get(start, key)
    if kind == "observe":  # a key naming a peer re-observes it
        return overlay.nodes[start].observe(NAMES[KEYS.index(key) % n])
    return overlay.bootstrap()


def _rng_states(fabric):
    owners = (fabric.sim, fabric.network, fabric, fabric.channel)
    return [(type(owner).__name__, name, value.getstate())
            for owner in owners if owner is not None
            for name, value in sorted(vars(owner).items())
            if isinstance(value, random.Random)]


def _state(fabric, overlay):
    """Everything an operation may have moved."""
    return (fabric.network.stats.summary(),
            [(i.name, i.labels, i.value) for i in fabric.metrics],
            [(span.name, span.parent_id, span.attrs, span.cost)
             for span in getattr(fabric.network.tracer, "spans", ())],
            _rng_states(fabric),
            {name: (list(node.buckets.items()), dict(node.store))
             for name, node in overlay.nodes.items()})


def _step(world, n, op):
    fabric, overlay = world
    try:
        outcome = _run(overlay, n, op)
    except ReproError as exc:
        outcome = type(exc)
    return outcome, _state(fabric, overlay)


@contextmanager
def _geometry(k, alpha=kademlia.ALPHA):
    """Both codes read the bucket size and the parallelism from the module
    constants, so the oracle holds for any value; small buckets reach the
    full-bucket and truncated-claim paths a few dozen peers do not."""
    with mock.patch.object(kademlia, "K", k), \
            mock.patch.object(kademlia, "ALPHA", alpha):
        yield


def _agree(s):
    """Replay ``s`` on the oracle and the new code, comparing throughout."""
    with _geometry(s["k"], s["alpha"]):
        return _replay(s)


def _replay(s):
    old = _world(reference.ReferenceOverlay, s)
    new = _world(KademliaOverlay, s)
    assert _state(*new) == _state(*old)
    outcomes = []
    for op in s["ops"]:
        expected = _step(old, s["n"], op)
        assert _step(new, s["n"], op) == expected
        outcomes.append(expected[0])
    return outcomes


ORACLE = settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@ORACLE
@given(SCENARIO)
def test_the_overlay_equals_the_sorting_oracle(s):
    _agree(s)


@ORACLE
@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                max_size=80),
       st.sampled_from((1, 2, 8, 20)),
       st.one_of(st.sampled_from(["own", "member"]),
                 st.integers(0, 2 ** 64 - 1)),
       st.integers(0, 40), st.integers(0, 63))
def test_the_walk_equals_the_full_sort(contacts, k, target, count, who):
    """One node, any bucket state: the walk returns the sorted prefix."""
    names = [f"n{i}" for i in range(64)]
    old = reference.ReferenceNode(names[who])
    new = KademliaNode(names[who])
    with _geometry(k):
        for i, j in contacts:
            for node in (old, new):
                node.observe(names[i])
                node.observe(names[j])
    assert list(new.buckets.items()) == list(old.buckets.items())
    target_id = {"own": new.kad_id,
                 "member": kademlia.kad_id(names[contacts[0][0]]
                                           if contacts else "n0")
                 }.get(target, target)
    assert new.closest_known(XorDistances(target_id), count) \
        == old.closest_known(target_id, count)


def _branches(node, distances, count):
    """Which branches of the bucket walk this call takes."""
    top = (node.kad_id ^ distances.target_id).bit_length() - 1
    buckets = node.buckets
    taken = {"own id" if top < 0 else
             "target bucket" if top in buckets else "no target bucket"}
    found = len(buckets.get(top, ()))
    if found < count:
        taken.add("lower buckets")
        found += sum(len(b) for i, b in buckets.items() if i < top)
        for index in sorted(i for i in buckets if i > top):
            if found >= count:
                taken.add("higher buckets cut short")
                break
            taken.add("higher buckets")
            found += len(buckets[index])
        else:
            taken.add("every bucket walked")
    return taken


PINNED = {"seed": 5, "n": 24, "k": 8, "alpha": 3, "loss": 0.0,
          "resilient": False, "budget": False, "adversary": "off",
          "tracing": False, "observed": [], "bootstraps": 1,
          "offline": frozenset(),
          "ops": [("put", 1, "k0"), ("get", 7, "k0"), ("lookup", 3, "p3"),
                  ("lookup", 3, "p9"), ("lookup", 12, "k1"),
                  ("get", 2, "k2")]}
PINNED_CHANGES = (
    {},
    {"k": 1}, {"k": 2}, {"k": 20, "n": 12},
    {"bootstraps": 2, "observed": [(0, 5), (5, 0), (3, 3)]},
    {"bootstraps": 0, "observed": [(0, 5), (1, 0), (5, 1)],
     "ops": [("lookup", 0, "k0"), ("lookup", 2, "k0")]},
    {"loss": 0.2, "resilient": True, "offline": frozenset({4, 9})},
    {"budget": True, "tracing": True},
    {"ops": [("lookup", 3, "k1"), ("observe", 3, "p0"),
             ("bootstrap", 0, "k0"), ("lookup", 3, "k1")]},
    {"adversary": "eclipse", "k": 1, "tracing": True},
    {"adversary": "eclipse, true ids", "k": 2},
    {"adversary": "drop"},
    {"adversary": "eclipse, defended"},
    {"adversary": "drop, defended"},
)


def test_the_pinned_scenarios_reach_every_branch(monkeypatch):
    """The pinned scenarios walk every branch of ``closest_known``, end in
    every outcome a lookup has, and re-learn a truncated forged claim."""
    taken = set()
    walk = KademliaNode.closest_known

    def spy(node, distances, count):
        taken.update(_branches(node, distances, count))
        return walk(node, distances, count)

    #: (tracer, lookup span, name) -> [(round, claimed id)] per claim
    claims = {}
    answer = AdversaryModel.kad_answer

    def claim_spy(model, responder, key):
        forged = answer(model, responder, key)
        tracer = model.fabric.network.tracer
        for name, claimed in getattr(forged, "claims", ()):
            if tracer.current is not None:  # a traced scenario
                claims.setdefault(
                    (tracer, tracer.current.parent_id, name), []).append(
                        (tracer.current.attrs["round"], claimed))
        return forged

    monkeypatch.setattr(KademliaNode, "closest_known", spy)
    monkeypatch.setattr(AdversaryModel, "kad_answer", claim_spy)
    outcomes = set()
    for change in PINNED_CHANGES:
        for outcome in _agree({**PINNED, **change}):
            outcomes.add(outcome.__name__ if isinstance(outcome, type)
                         else "hit" if isinstance(outcome, tuple)
                         else "contact" if outcome is None else "found")
    assert taken == {"own id", "target bucket", "no target bucket",
                     "lower buckets", "higher buckets",
                     "higher buckets cut short", "every bucket walked"}
    assert outcomes >= {"hit", "found", "contact",
                        "StorageError", "LookupError_",
                        "DeadlineExceededError"}, outcomes
    # k = 1 keeps two names a round; an eclipse claims eight, so the rest
    # are truncated, and a later round's forger claims them again
    assert any(len({c for _, c in seen}) > 1
               and len({r for r, _ in seen}) > 1
               for seen in claims.values())


def test_a_lookup_hashes_each_name_it_ranks_once(monkeypatch):
    """One lookup calls ``kad_id`` once for the key and at most once per
    name it ranks; ``bootstrap`` once per node."""
    fabric = Fabric.create(seed=3)
    overlay = KademliaOverlay(fabric)
    for name in (f"p{i}" for i in range(200)):
        overlay.add_node(name)
    calls = Counter()
    hash_name = kademlia.kad_id

    def counting(name):
        calls[name] += 1
        return hash_name(name)

    monkeypatch.setattr(kademlia, "kad_id", counting)
    overlay.bootstrap()
    assert calls == Counter(list(overlay.nodes))
    for key in ("k0", "p7", "k1"):
        calls.clear()
        result = overlay.lookup("p0", key)
        assert result.rpcs > kademlia.K
        assert calls[key] >= 1
        calls[key] -= 1  # the key's own hash; a peer's name is ranked too
        assert max(calls.values()) == 1
        assert set(calls) <= set(overlay.nodes) | {key}
