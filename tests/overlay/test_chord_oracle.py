"""Chord's one-frame ``next_step`` and the fair-weather RPC settle against
the code they replaced.

``tests/overlay/reference.py`` keeps ``next_step`` as it was (one
``in_interval`` per successor, then a separate ``closest_preceding`` scan
of the distinct finger nodes) and the ``rpc_issue`` that opens a
``net.rpc`` span on every network and always settles on the general
``_rpc_inner`` — so wherever the new network settles fair-weather, this
oracle holds the fair settle equal to the general one.  Two worlds are
grown from one seed — built, or built and then grown by ``join`` +
``stabilize_all`` with some peers asleep, which leaves stale and
non-monotone finger tables — and must agree on every routing answer
(``next_step`` or the exception type) and on every whole operation: the
same ``LookupResult`` or ``Reply``, statistics, counters, spans and RNG
states, traced and untraced, under uniform, fixed or one-way latency,
with loss, offline and unknown destinations, expiring budgets, resilient
channels and bare or defended adversaries.
"""

from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

import repro.fabric
from repro.adversary import AdversaryConfig, DefenseConfig
from repro.exceptions import ReproError
from repro.fabric import Fabric
from repro.faults import OverloadConfig
from repro.overlay.chord import M_BITS, ChordRing, chord_id
from repro.overlay.network import SimNetwork
from repro.overlay.simulator import FixedLatency

from tests.overlay import reference
from tests.overlay.test_kad_oracle import ORACLE, _rng_states

MAX_PEERS = 64
NAMES = [f"c{i}" for i in range(MAX_PEERS)]
#: content keys, plus peer names: a key equal to a peer's name has that
#: peer's id (the start's own id when it is the start's name)
KEYS = ["k0", "k1", "k2"] + NAMES
TOP = (1 << M_BITS) - 1
ADVERSARIES = {
    "off": None,
    "misroute": AdversaryConfig(fraction=0.3, behaviors=("misroute",)),
    "eclipse": AdversaryConfig(fraction=0.3,
                               behaviors=("eclipse", "chosen_id")),
    "drop": AdversaryConfig(fraction=0.3, behaviors=("drop",)),
    # a defended lookup votes over paths that distrust each other's peers
    "misroute, defended": AdversaryConfig(
        fraction=0.3, behaviors=("misroute",), defense=DefenseConfig()),
    "eclipse, defended": AdversaryConfig(
        fraction=0.3, behaviors=("eclipse", "chosen_id"),
        defense=DefenseConfig()),
}


class OneWay:
    """A latency model that tells a request from its response."""

    def sample(self, rng, src, dst):
        return 0.02 if src < dst else 0.07


LATENCIES = {"uniform": None, "fixed": FixedLatency(), "one-way": OneWay()}
#: a budget a few hops long: lookups run out of it
EXPIRING = OverloadConfig(service=None, op_budget=0.05, retry_budget=False,
                          adaptive_timeout=False)

PEERS = st.frozensets(st.integers(0, MAX_PEERS - 1), max_size=8)
#: a routing key: any id, the asking node's own id or its neighbour's,
#: just past its first successor (distrusting that successor leaves the
#: fallback answer), the ends of the id space (keys that wrap zero), or a
#: peer's id
KEY_IDS = st.one_of(st.integers(0, TOP),
                    st.sampled_from(("own", "own+1", "own-1", "succ+1",
                                     0, 1, TOP)),
                    st.sampled_from(NAMES))
#: a ``call`` is one bare RPC to its key: a peer (online, offline or not
#: yet added) or a content key no peer is registered under
OP = st.tuples(st.sampled_from(("lookup", "lookup", "put", "get", "get",
                                "get_many", "call")),
               st.integers(0, MAX_PEERS - 1),
               st.lists(st.sampled_from(KEYS), min_size=1, max_size=3))
SCENARIO = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 16),
    "n": st.integers(1, MAX_PEERS),
    # how many peers ``build`` places; the rest join one by one
    "built": st.integers(1, MAX_PEERS),
    "rounds": st.integers(0, 2),
    # offline while the ring stabilizes, back before routing: their
    # neighbours' fingers skip them, other fingers still name them
    "asleep": PEERS,
    "offline": PEERS,
    "avoid": PEERS,
    "distrust": PEERS,
    "key_ids": st.lists(KEY_IDS, min_size=1, max_size=6),
    "latency": st.sampled_from(sorted(LATENCIES)),
    "loss": st.sampled_from((0.0, 0.0, 0.2)),
    "resilient": st.booleans(),
    "budget": st.booleans(),
    "adversary": st.sampled_from(sorted(ADVERSARIES)),
    "tracing": st.booleans(),
    "ops": st.lists(OP, min_size=1, max_size=6),
})


def _world(ring_cls, network_cls, s):
    """A ring and its fabric, grown from ``s`` alone."""
    with mock.patch.object(repro.fabric, "SimNetwork", network_cls):
        fabric = Fabric.create(
            seed=s["seed"], latency=LATENCIES[s["latency"]],
            loss_rate=s["loss"], resilient=s["resilient"],
            tracing=s["tracing"], overload=EXPIRING if s["budget"] else None,
            adversary=ADVERSARIES[s["adversary"]])
    ring = ring_cls(fabric, replication=2)
    names = NAMES[:s["n"]]
    built = min(s["built"], s["n"])
    for name in names[:built]:
        ring.add_node(name)
    ring.build()
    joins = []
    for name in names[built:]:
        try:
            ring.join(name, via=names[0])
            joins.append(None)
        except ReproError as exc:  # enrolled, but with no successor
            joins.append(type(exc))
    asleep = [ring.nodes[names[i % s["n"]]] for i in s["asleep"]]
    for node in asleep:
        node.go_offline()
    ring.stabilize_all(s["rounds"])
    for node in asleep:
        node.go_online()
    for i in s["offline"]:
        ring.nodes[names[i % s["n"]]].go_offline()
    return fabric, ring, joins


def _state(fabric, ring):
    """Everything an operation may have moved."""
    return (fabric.network.stats.summary(),
            [(i.name, i.labels, i.value) for i in fabric.metrics],
            [(span.name, span.parent_id, span.attrs, span.cost)
             for span in fabric.network.tracer.spans],
            # the reference network's class name aside
            [(name, value) for _, name, value in _rng_states(fabric)],
            {name: (node.online, node.fingers, node.successors,
                    node.predecessor, dict(node.store))
             for name, node in ring.nodes.items()})


def distinct_reversed(fingers):
    """The set entries of a finger table, farthest first, each once."""
    seen = []
    for name in reversed(fingers):
        if name is not None and name not in seen:
            seen.append(name)
    return seen


def _key_id(node, key):
    if key == "succ+1":
        first = chord_id(node.successors[0]) if node.successors \
            else node.chord_id
        return (first + 1) % (TOP + 1)
    if key in ("own", "own+1", "own-1"):
        return (node.chord_id + {"own": 0, "own+1": 1, "own-1": -1}[key]) \
            % (TOP + 1)
    return chord_id(key) if isinstance(key, str) else key


def _answer(call):
    try:
        return call()
    except ReproError as exc:
        return type(exc)


def _answers(ring, s):
    """Every node's routing answers for every key of ``s``."""
    avoid = frozenset(NAMES[i] for i in s["avoid"])
    distrust = frozenset(NAMES[i] for i in s["distrust"])
    return {
        (name, key): (
            _answer(lambda: node.next_step(key_id, ring, frozenset())),
            _answer(lambda: node.next_step(key_id, ring, avoid)),
            _answer(lambda: node.next_step(key_id, ring, avoid, distrust)),
            _answer(lambda: node.next_step(key_id, ring, avoid, distrust,
                                           whole_list=True)))
        for name, node in ring.nodes.items()
        for key in s["key_ids"]
        for key_id in [_key_id(node, key)]}


def _run(ring, n, op):
    kind, i, keys = op
    start = NAMES[i % n]
    if kind == "lookup":
        return ring.lookup(start, keys[0])
    if kind == "put":
        return ring.put(start, keys[0], f"{keys[0]} from {start}".encode())
    if kind == "get":
        return ring.get(start, keys[0])
    if kind == "call":
        return ring.fabric.op(start).call(start, keys[0], "probe")
    return {key: type(value) if isinstance(value, Exception) else value
            for key, value in ring.get_many(start, keys).items()}


def _agree(s):
    """Grow ``s`` on the oracle and the new code, comparing throughout."""
    old_fabric, old, old_joins = _world(reference.ReferenceChordRing,
                                        reference.ReferenceNetwork, s)
    new_fabric, new, new_joins = _world(ChordRing, SimNetwork, s)
    assert new_joins == old_joins
    for node in new.nodes.values():
        assert [peer.node_id for peer in node.finger_nodes] \
            == distinct_reversed(node.fingers)
    assert _state(new_fabric, new) == _state(old_fabric, old)
    answers = _answers(old, s)
    assert _answers(new, s) == answers
    for op in s["ops"]:
        expected = _answer(lambda: _run(old, s["n"], op))
        assert _answer(lambda: _run(new, s["n"], op)) == expected
        assert _state(new_fabric, new) == _state(old_fabric, old)
    return old, answers


@ORACLE
@given(SCENARIO)
def test_the_ring_equals_the_full_finger_scan(s):
    _agree(s)


PINNED = {"seed": 3, "n": 40, "built": 40, "rounds": 0,
          "asleep": frozenset(), "offline": frozenset(),
          "avoid": frozenset(), "distrust": frozenset(),
          "key_ids": ["own", "own+1", "own-1", "succ+1", 0, TOP, "c5",
                      "k0"],
          "latency": "uniform", "loss": 0.0, "resilient": False,
          "budget": False, "adversary": "off", "tracing": False,
          "ops": [("put", 1, ["k0"]), ("get", 7, ["k0"]),
                  ("lookup", 3, ["c3"]), ("get_many", 2, ["k0", "k1"]),
                  ("call", 5, ["c9"]), ("call", 6, ["k2"])]}
PINNED_CHANGES = (
    {},
    {"n": 1, "built": 1},
    {"n": 1, "built": 1, "latency": "fixed"},
    {"latency": "fixed"},
    {"n": 2, "built": 2},
    {"n": 3, "built": 1, "rounds": 1},
    {"built": 24, "rounds": 0},
    {"built": 24, "rounds": 1, "asleep": frozenset({2, 9, 30})},
    {"offline": frozenset({4, 9, 11}), "avoid": frozenset({0, 5, 17}),
     "distrust": frozenset({8, 21})},
    {"offline": frozenset(range(1, 40)), "key_ids": ["own+1", "k1"]},
    {"loss": 0.2, "resilient": True, "tracing": True},
    {"budget": True, "tracing": True},
    {"adversary": "misroute, defended", "tracing": True},
    {"adversary": "eclipse"},
)


def _branch(ring, node, key_id, step, avoid):
    """Which way ``next_step`` answered: an owning successor, a finger, a
    preceding successor, the fallback successor or an exception (the
    oracle's ``closest_preceding`` tells the middle three apart)."""
    if isinstance(step, type):
        return step.__name__
    if step[1]:
        return "owner"
    hop = node.closest_preceding(key_id, ring, avoid)
    return "fallback" if hop is None \
        else "finger" if hop in node.fingers else "successor"


def test_the_pinned_scenarios_reach_every_branch():
    """The pinned scenarios route from an owning successor, a finger, a
    preceding successor, the fallback and a partitioned node; run on
    tables with unset, repeated and non-monotone fingers; end in every
    outcome a lookup has; and call online, offline and unknown peers."""
    answered, tables, outcomes, causes = set(), set(), set(), set()
    for change in PINNED_CHANGES:
        s = {**PINNED, **change}
        ring, answers = _agree(s)
        # the fallback needs the first live successor distrusted
        skip = frozenset(NAMES[i] for i in s["avoid"] | s["distrust"])
        for (name, key), (step, _, distrusting, _) in answers.items():
            node = ring.nodes[name]
            key_id = _key_id(node, key)
            answered.add(_branch(ring, node, key_id, step, frozenset()))
            answered.add(_branch(ring, node, key_id, distrusting, skip))
        for node in ring.nodes.values():
            fingers = node.fingers
            if None in fingers:
                tables.add("unset")
            if len(set(fingers)) < len(fingers):
                tables.add("repeated")
            distances = [(ring.nodes[f].chord_id - node.chord_id) % (TOP + 1)
                         for f in fingers if f is not None]
            if distances != sorted(distances):
                tables.add("non-monotone")
        for op in s["ops"]:
            outcome = _answer(lambda: _run(ring, s["n"], op))
            outcomes.add(outcome.__name__ if isinstance(outcome, type)
                         else type(outcome).__name__)
            if op[0] == "call":
                causes.add(outcome.cause)
    assert answered == {"owner", "finger", "successor", "fallback",
                        "LookupError_"}, answered
    assert tables == {"unset", "repeated", "non-monotone"}
    assert outcomes >= {"LookupResult", "tuple", "dict", "Reply",
                        "LookupError_", "DeadlineExceededError"}, outcomes
    assert causes >= {None, "offline"}, causes
