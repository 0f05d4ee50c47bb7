"""Layering gate: overlays and stores stay ignorant of the RPC path's
cross-cutting subsystems.

The resilient channel, overload protection, membership and the adversary
model reach Chord, Kademlia, the replica fetch, the quorum store and the
repair daemon only through :meth:`repro.fabric.Fabric.call` and the
:class:`repro.fabric.OpContext` — never as ``fabric.<subsystem>``
attribute access spliced into a routing or storage loop.  Constructors
may capture collaborators and ``add_node`` may enroll a peer; nothing
else may look.
"""

import ast
import importlib
import inspect
import json
import pathlib
import re

import pytest

import repro
from repro.dosn.storage import DHTBackend
from repro.overlay.chord import ChordRing
from repro.overlay.hybrid import HybridOverlay
from repro.overlay.kademlia import KademliaOverlay

SRC = pathlib.Path(repro.__file__).parent
LAYERED = ["overlay/chord.py", "overlay/kademlia.py",
           "overlay/replication.py", "storage2/quorum.py",
           "storage2/repair.py"]
CONCERNS = {"adversary", "overload", "membership", "channel"}
#: functions allowed to touch a concern: collaborator capture, enrollment
EXEMPT = {"__init__", "add_node"}


def _name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _violations(source: str):
    tree = ast.parse(source)

    def walk(node: ast.AST, function: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if function not in EXEMPT:
            if isinstance(node, ast.Attribute):
                base = _name(node.value)
                if node.attr in CONCERNS and base == "fabric":
                    yield node.lineno, f"fabric.{node.attr}"
                elif base == "channel" and isinstance(node.value,
                                                      ast.Attribute):
                    yield node.lineno, f".channel.{node.attr}"
            elif (isinstance(node, ast.Call) and _name(node.func) == "getattr"
                  and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)
                  and node.args[1].value in CONCERNS):
                yield node.lineno, f"getattr(..., {node.args[1].value!r})"
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    return list(walk(tree, "<module>"))


@pytest.mark.parametrize("relative", LAYERED)
def test_no_cross_cutting_access_outside_constructors(relative):
    found = _violations((SRC / relative).read_text())
    assert not found, (
        f"{relative} reaches around the fabric seam: "
        + ", ".join(f"line {line}: {what}" for line, what in found))


def test_the_gate_sees_a_splice():
    """The checker itself: a per-hop ``fabric.adversary`` read is caught,
    the same read in ``add_node`` is not."""
    source = (
        "class Ring:\n"
        "    def add_node(self, name):\n"
        "        if self.fabric.adversary is not None:\n"
        "            self.fabric.adversary.enroll(name)\n"
        "    def lookup(self, key):\n"
        "        adv = self.fabric.adversary\n"
        "        self.ring.channel.call(key)\n"
        "        return getattr(self.fabric, 'membership', None)\n")
    assert [what for _line, what in _violations(source)] == [
        "fabric.adversary", ".channel.call", "getattr(..., 'membership')"]


def _latency_model_forks(source: str):
    """Every way code could select or fork on a latency model: reading a
    ``.concurrent`` attribute, passing ``concurrent=``, or opening a span
    conditionally (``nullcontext`` was the off-mode stand-in)."""
    tree = ast.parse(source)

    def walk(node: ast.AST, scope: str):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}"
        if scope != ".DosnConfig.__post_init__":  # the field's validation
            if isinstance(node, ast.Attribute) and node.attr == "concurrent":
                yield node.lineno, ".concurrent"
            elif isinstance(node, ast.keyword) and node.arg == "concurrent":
                yield node.value.lineno, "concurrent="
        if _name(node) == "nullcontext":
            yield node.lineno, "nullcontext"
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    return list(walk(tree, ""))


def test_one_latency_model_everywhere():
    found = [(str(path.relative_to(SRC)), line, what)
             for path in sorted(SRC.rglob("*.py"))
             for line, what in _latency_model_forks(path.read_text())]
    assert not found, (
        "critical path is the only latency model; found: "
        + ", ".join(f"{path}:{line} {what}" for path, line, what in found))


def test_the_latency_gate_sees_a_fork():
    source = (
        "import contextlib\n"
        "class DosnConfig:\n"
        "    concurrent: bool = True\n"
        "    def __post_init__(self):\n"
        "        if not self.concurrent:\n"
        "            raise ValueError\n"
        "def fetch(sim, tracer):\n"
        "    span = tracer.span('x') if sim.concurrent \\\n"
        "        else contextlib.nullcontext(None)\n"
        "    return make(concurrent=True)\n")
    assert [what for _line, what in _latency_model_forks(source)] == [
        ".concurrent", "nullcontext", "concurrent="]


@pytest.mark.parametrize("cls", [ChordRing, KademliaOverlay, HybridOverlay,
                                 DHTBackend])
def test_no_private_reentry_surface_in_public_signatures(cls):
    banned = {"distrust", "visited", "_single_path", "channel"}
    for name, member in inspect.getmembers(cls, inspect.isfunction):
        if name.startswith("_") and name != "__init__":
            continue
        leaked = banned & set(inspect.signature(member).parameters)
        assert not leaked, f"{cls.__name__}.{name} still takes {leaked}"


def test_ring_order_is_read_through_the_public_accessor():
    """``ChordRing`` keeps its sorted index private: other modules ask
    ``owner_of`` / ``replica_set`` / ``ring_order``, none bisects the
    ring itself."""
    found = [(str(path.relative_to(SRC)), node.lineno)
             for path in sorted(SRC.rglob("*.py"))
             if path != SRC / "overlay" / "chord.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr == "_successor_index"]
    assert not found, f"_successor_index used outside chord.py: {found}"


# -- each attachment is decided where it attaches (ROADMAP item 8) ---------------

#: the modules on the RPC, hop and probe paths, and the facade's per-call
#: paths (the social operations, the feed, the peer, the backends, the
#: cache tier)
ATTACHED_TO = ["fabric.py", "overlay/network.py", "faults/resilience.py",
               "overlay/chord.py", "overlay/kademlia.py", "storage2/quorum.py",
               "storage2/repair.py", "dosn/api.py", "dosn/feed.py",
               "dosn/user.py", "dosn/storage.py"] + [
    str(path.relative_to(SRC)) for path in sorted((SRC / "cache").glob("*.py"))]
#: names of an optional subsystem, or of the choice attaching it made
ATTACHMENTS = {"channel", "overload", "membership", "adversary", "quarantine",
               "defense", "faults", "service", "_adaptive", "breaker",
               "retry_budget", "_signer_of", "resilient", "cache",
               "prefetcher", "provider", "metrics"}
#: a function that may ask whether one is present: where it is decided
DECIDED_IN = ("__init__", "__post_init__", "create", "install_", "attach_",
              "__repr__")
#: branches kept because binding their decision costs more than they do
ATTACHMENT_EXEMPT = {
    ("overlay/chord.py", "_get_group"):
        "one branch, what a failed route does: a bare read fails the "
        "group, a resilient one (the channel has already retried) probes "
        "the replica set.  Neither rule alone holds the tables: failing "
        "the group on every fabric drops E12's `partition + burst` retry "
        "rows from 0.7333 to 0.6333 / 0.6000 and fails E15b's `health > "
        "resilient` gate (0.7536 = 0.7536); probing the replica set on "
        "every fabric lifts E12's bare `partition + burst 20%` row from "
        "0.2000 to 0.7167, which fails E12's `resilient at least doubles "
        "bare` gate",
}


def _attachment_tests(source: str):
    """``(line, function, name)`` of every ``is [not] None`` comparison on
    an attachment and every truthiness test of one (``if``, ``while``,
    ``and`` / ``or``, ``not``, a conditional expression or a
    comprehension filter), outside the functions that decide it."""
    found = []

    def test_of(node, function):
        if _name(node) in ATTACHMENTS:
            found.append((node.lineno, function, _name(node)))

    def walk(node: ast.AST, function: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if not function.startswith(DECIDED_IN):
            if isinstance(node, ast.Compare):
                operands = [node.left] + node.comparators
                for op, pair in zip(node.ops, zip(operands, operands[1:])):
                    if isinstance(op, (ast.Is, ast.IsNot)):
                        for this, other in (pair, pair[::-1]):
                            if isinstance(other, ast.Constant) \
                                    and other.value is None:
                                test_of(this, function)
            elif isinstance(node, (ast.If, ast.IfExp, ast.While)):
                test_of(node.test, function)
            elif isinstance(node, ast.BoolOp):
                for value in node.values:
                    test_of(value, function)
            elif isinstance(node, ast.UnaryOp) \
                    and isinstance(node.op, ast.Not):
                test_of(node.operand, function)
            elif isinstance(node, ast.comprehension):
                for condition in node.ifs:
                    test_of(condition, function)
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(ast.parse(source), "<module>")
    return found


def test_attachments_are_decided_where_they_attach():
    found = {}
    for relative in ATTACHED_TO:
        for line, function, name in _attachment_tests(
                (SRC / relative).read_text()):
            found.setdefault((relative, function), []).append(
                f"line {line}: {name}")
    unlisted = {where: hits for where, hits in found.items()
                if where not in ATTACHMENT_EXEMPT}
    assert not unlisted, (
        "a per-operation path asks whether a subsystem is attached: bind "
        "the decision where it attaches (Fabric.__init__ / create / "
        "attach_*, SimNetwork.install_*, the constructors) instead, or "
        f"list the branch in ATTACHMENT_EXEMPT with its reason: {unlisted}")
    stale = sorted(set(ATTACHMENT_EXEMPT) - set(found))
    assert not stale, f"ATTACHMENT_EXEMPT lists clean functions: {stale}"


def test_the_attachment_gate_sees_a_per_hop_test():
    """The checker itself: a per-hop presence test is caught, the same
    test where the subsystem attaches is not, and so is a truthiness
    test."""
    source = (
        "class Net:\n"
        "    def attach_membership(self, membership):\n"
        "        if self.membership is not None:\n"
        "            raise ValueError\n"
        "        self.view = None if membership is None else membership\n"
        "    def hop(self, peer):\n"
        "        if self.fabric.membership is not None:\n"
        "            peer = self.fabric.membership.order(peer)\n"
        "        return peer if self.channel else None\n"
        "    def probe(self, view, resilient):\n"
        "        return view is None and not resilient\n")
    assert _attachment_tests(source) == [
        (7, "hop", "membership"), (9, "hop", "channel"),
        (11, "probe", "resilient")]


def _architecture_compares(source: str):
    """``(line, function)`` of every comparison with an ``architecture``
    operand outside the functions that decide it."""
    found = []

    def walk(node: ast.AST, function: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare) \
                and not function.startswith(DECIDED_IN) \
                and any(_name(operand) == "architecture"
                        for operand in [node.left, *node.comparators]):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(ast.parse(source), "<module>")
    return found


def test_the_architecture_is_decided_once():
    """``DosnNetwork.__init__`` picks the storage backend and the backend
    owns what differs between architectures; no operation asks again."""
    found = [(str(path.relative_to(SRC)), line, function)
             for path in sorted((SRC / "dosn").rglob("*.py"))
             for line, function in _architecture_compares(path.read_text())]
    assert not found, (
        "a per-call path compares the architecture: move the difference "
        f"onto the StorageBackend subclasses instead: {found}")


def test_the_architecture_gate_sees_a_per_call_compare():
    source = (
        "class Net:\n"
        "    def __init__(self, config):\n"
        "        if config.architecture == 'dht':\n"
        "            self.ring = Ring()\n"
        "    def add_user(self, name):\n"
        "        if self.architecture == 'dht':\n"
        "            self.ring.add_node(name)\n"
        "        return name if 'local' != architecture else None\n"
        "    def report(self):\n"
        "        return self.architecture in ('central', 'federation')\n")
    assert _architecture_compares(source) == [
        (6, "add_user"), (8, "add_user"), (10, "report")]


# -- one read path ------------------------------------------------------------

#: names of the read paths that were folded away, of the second
#: statistics system and its profilers, of SWIM state nothing read, and of
#: the list-based AES forward rounds and key schedule (now
#: ``tests/crypto/reference.py``), of a ``FeedReport`` filter nothing
#: called, of the config classes and fields the knob census turned into
#: constants, of six public methods nothing referenced, of the histogram
#: instruments nothing wrote, of the per-lookup defense switch, of three
#: helpers only tests reached, of the future-based fan-out kernel (an
#: RPC's outcome is a ``Reply``, a fan-out's cost ``critical_path``), and
#: of the facade's search (section V search runs through ``SearchIndex``
#: itself); nothing may bring them back
GONE = ("fetch_from_holders", "_get_failover", "_provenance", "batch_reads",
        "crypto_op", "profile_crypto", "absorb_network", "by_kind",
        "suspected_at", "is_suspect", "_shift_rows", "_mix_columns",
        "_expand_key", "from_source", "AdaptiveTimeoutConfig",
        "RetryBudgetConfig", "prefetch_depth", "ranking_infiltration",
        "availability_with_agreement", "external_view", "matching_tags",
        "set_policy", "subscription_tags", "Histogram", "histogram",
        "DEFAULT_BUCKETS", "secure_lookup", "check_or_raise", "first_of",
        "latest_version", "SimFuture", "FanoutResult", "quorum_of",
        "_future_sequence", "quorum_read_batch", "index_posts", "IndexLayer")
READ_KINDS = {"chord_replica_read", "chord_batch_fetch"}


def test_folded_read_paths_stay_gone():
    pattern = re.compile(r"\b(" + "|".join(GONE) + r")\b")
    found = [(str(path.relative_to(SRC)), number, match.group(1))
             for path in sorted(SRC.rglob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             for match in [pattern.search(line)] if match]
    assert not found, f"deleted names are back: {found}"


def _test_imports(source: str):
    """Line numbers of ``import tests...`` / ``from tests... import``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "tests"
                    for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "tests"]


def test_nothing_under_src_imports_the_tests():
    """``tests/crypto/reference.py`` is the oracle of the crypto fast
    paths; code under ``src/`` that imported it (or any test) would make
    the oracle part of what it checks."""
    found = [(str(path.relative_to(SRC)), line)
             for path in sorted(SRC.rglob("*.py"))
             for line in _test_imports(path.read_text())]
    assert not found, f"src/ imports from tests/: {found}"
    assert _test_imports("import os\n"
                         "from tests.crypto import reference as ref\n"
                         "import tests.crypto.reference\n"
                         "from testsuite import x\n") == [2, 3]


def test_prefetcher_asks_for_verified_cids_instead_of_decoding_payloads():
    """What a friend's verified cids are has one definition,
    ``DosnUser.verified_cids``; the prefetcher takes it as a callback and
    reads no chain entry's ``payload`` itself."""
    found = [node.lineno for node in ast.walk(ast.parse(
                 (SRC / "cache" / "prefetch.py").read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "payload"]
    assert not found, f"cache/prefetch.py reads .payload at lines {found}"


def _quorum_tests(source: str):
    """``<x>.quorum is [not] ...`` comparisons outside ``__init__``."""
    tree = ast.parse(source)

    def walk(node: ast.AST, function: str):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if (function != "__init__" and isinstance(node, ast.Compare)
                and _name(node.left) == "quorum"
                and any(isinstance(op, (ast.Is, ast.IsNot))
                        for op in node.ops)):
            yield node.lineno, function
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    return list(walk(tree, "<module>"))


def test_dht_backend_decides_bare_or_quorum_once():
    found = _quorum_tests((SRC / "dosn" / "storage.py").read_text())
    assert not found, (
        f"dosn/storage.py re-tests self.quorum outside __init__: {found}")
    assert _quorum_tests(
        "class B:\n"
        "    def __init__(self, quorum):\n"
        "        self.both = quorum is not None\n"
        "    def get(self):\n"
        "        if self.quorum is not None:\n"
        "            return 1\n") == [(5, "get")]


def test_one_function_issues_the_replica_read_rpcs():
    """``get`` and ``get_many`` name their RPC kind; only the routine
    they share puts it on the wire — in the ring and in the quorum
    store."""
    tree = ast.parse((SRC / "overlay" / "chord.py").read_text())
    issuers = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and len(node.args) > 2 \
                    and _name(node.func) == "call":
                kind = node.args[2]
                if isinstance(kind, ast.Name) or (
                        isinstance(kind, ast.Constant)
                        and kind.value in READ_KINDS):
                    issuers.add(function.name)
    assert issuers == {"_get_group"}
    named_at = {_name(node.func) for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and any(isinstance(arg, ast.Constant)
                        and arg.value in READ_KINDS for arg in node.args)}
    assert named_at == {"_get_group"}
    literals = [node for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and node.value in READ_KINDS]
    assert len(literals) == len(READ_KINDS)
    # the quorum store: one verified read, ``get_many`` (``get`` is its
    # one-key batch), and E14's trusting ``read_any`` baseline
    tree = ast.parse((SRC / "storage2" / "quorum.py").read_text())
    named_in = {}
    calls_in = {}
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Constant) \
                    and node.value in ("quorum_read", "replica_fetch"):
                named_in.setdefault(node.value, set()).add(function.name)
            if isinstance(node, ast.Call):
                calls_in.setdefault(function.name, set()).add(
                    _name(node.func))
    assert named_in == {"quorum_read": {"get_many"},
                        "replica_fetch": {"read_any"}}
    assert calls_in["get"] == {"get_many", "isinstance"}


# -- one replica rule: a peer's reply, never a peek at its flag -------------

#: the replica paths: each learns whether a peer is up from the reply to
#: the RPC it pays for (``tests/test_reply_rule.py`` holds each to it)
REPLY_RULE_SITES = {
    "overlay/chord.py": {"ChordRing._get_group"},
    "storage2/quorum.py": {"ReplicatedStore.get_many",
                           "ReplicatedStore.read_any"},
    "overlay/superpeer.py": {"SuperPeerOverlay.fetch",
                             "SuperPeerOverlay.publish"},
    "systems/supernova.py": {"SupernovaNetwork._keeper_fetch",
                             "SupernovaNetwork._keeper_store"},
    "systems/prpl.py": {"PrplNetwork._butler_fetch",
                        "PrplNetwork._device_store"},
    "overlay/kademlia.py": {"KademliaOverlay.put"},
    "overlay/federation.py": {"FederatedNetwork.post"},
    "systems/cuckoo.py": {"CuckooNetwork._store_and_push"},
    "adversary/defense.py": {"defended_kad_lookup"},
}


def _liveness_peeks(source: str, functions):
    """``{function: [line, ...]}`` for each named ``Class.method`` or
    module-level function: the lines that read an ``online`` attribute or
    call ``is_online``."""
    named = {}
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            for function in top.body:
                named[f"{top.name}.{getattr(function, 'name', '')}"] = \
                    function
        elif isinstance(top, ast.FunctionDef):
            named[top.name] = top
    return {qualified: [node.lineno for node in ast.walk(function)
                        if isinstance(node, ast.Attribute)
                        and node.attr in ("online", "is_online")]
            for qualified, function in named.items()
            if qualified in functions}


@pytest.mark.parametrize("relative", sorted(REPLY_RULE_SITES))
def test_replica_paths_read_no_liveness_flag(relative):
    functions = REPLY_RULE_SITES[relative]
    peeks = _liveness_peeks((SRC / relative).read_text(), functions)
    assert set(peeks) == functions, \
        f"{relative}: gone {functions - set(peeks)}"
    found = {name: lines for name, lines in peeks.items() if lines}
    assert not found, (
        f"{relative} peeks at a peer's liveness instead of reading the "
        f"reply to the RPC it pays for: {found}")


def test_the_reply_gate_sees_a_peek():
    source = (
        "class Store:\n"
        "    def fetch(self, holder):\n"
        "        if self.nodes[holder].online:\n"
        "            return self.network.is_online(holder)\n"
        "    def start(self, node):\n"
        "        return node.online\n"
        "def lookup(nodes, name):\n"
        "    return nodes[name].online\n")
    assert _liveness_peeks(source, {"Store.fetch", "lookup"}) == {
        "Store.fetch": [3, 4], "lookup": [8]}


# -- one statistics system ------------------------------------------------------

def _assigned(node: ast.AST):
    """The targets of a plain, augmented or annotated assignment."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _stats_writes(source: str):
    """Assignments whose target is an attribute — or an item of an
    attribute — of something called ``stats``: the registry is the only
    store, the view has no fields."""
    for node in ast.walk(ast.parse(source)):
        for target in _assigned(node):
            for part in ast.walk(target):
                if isinstance(part, ast.Attribute) \
                        and _name(part.value) == "stats":
                    yield node.lineno, f"stats.{part.attr}"


def test_nothing_writes_into_the_stats_view():
    found = [(str(path.relative_to(SRC)), line, what)
             for path in sorted(SRC.rglob("*.py"))
             for line, what in _stats_writes(path.read_text())]
    assert not found, (
        "events are recorded once, in the metrics registry; found: "
        + ", ".join(f"{path}:{line} {what}" for path, line, what in found))
    assert [what for _line, what in _stats_writes(
        "self.stats = NetworkStats(self.metrics)\n"
        "self.network.stats.hedges += 1\n"
        "stats.by_kind[kind] += 1\n"
        "a, net.stats.shed = 1, 2\n")] == [
            "stats.hedges", "stats.by_kind", "stats.shed"]


def test_one_module_derives_the_flat_fields():
    definers = [str(path.relative_to(SRC))
                for path in sorted(SRC.rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                for target in _assigned(node)
                if _name(target) == "STATS_FIELDS"]
    assert definers == ["overlay/network.py"]


# -- one writer for a member record's state ---------------------------------------

def _state_writes(source: str):
    """``(line, function)`` of every assignment to an attribute named
    ``state`` on anything but ``self`` (a record initialising itself),
    and of every item assigned in a ``states`` array (a packed view's
    column of them)."""
    tree = ast.parse(source)

    def walk(node: ast.AST, function: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for target in _assigned(node):
            for part in ast.walk(target):
                if isinstance(part, ast.Attribute) and part.attr == "state" \
                        and _name(part.value) != "self" \
                        or isinstance(part, ast.Subscript) \
                        and isinstance(part.value, ast.Attribute) \
                        and part.value.attr == "states":
                    yield node.lineno, function
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    return list(walk(tree, "<module>"))


#: the record-per-pair oracle keeps its own one writer
_ORACLE_STATE_WRITER = ("membership/reference.py", "set_state")


def test_one_function_writes_a_member_records_state():
    """``MemberView`` indexes its suspects and its dead; a peer's state
    written anywhere but in the view's transition function leaves the
    indexes describing a view production can never reach."""
    writers = [(str(path.relative_to(SRC)), function)
               for path in sorted((SRC / "membership").rglob("*.py"))
               for _line, function in _state_writes(path.read_text())]
    assert writers == [("membership/swim.py", "set_state")]
    tests = pathlib.Path(__file__).parent
    found = [(str(path.relative_to(tests)), line, function)
             for path in sorted(tests.rglob("*.py"))
             for line, function in _state_writes(path.read_text())]
    assert [(path, function) for path, _line, function in found] \
        == [_ORACLE_STATE_WRITER], (
        "tests move a record through MemberView.set_state, like the "
        f"protocol does; found direct writes: {found}")
    assert _state_writes(
        "class R:\n"
        "    def __init__(self):\n"
        "        self.state = ALIVE\n"
        "        self.states = bytearray(3)\n"
        "def sweep(view, record):\n"
        "    record.state = DEAD\n"
        "    view.records[p].state, n = SUSPECT, 1\n"
        "    view.states[rank] = 2\n"
        "    self.states[rank] += 1\n") == [
            (6, "sweep"), (7, "sweep"), (8, "sweep"), (9, "sweep")]


# -- the surveyed systems protect content through the registered schemes ----------

#: content crypto a ``repro.systems`` model reaches only through a
#: ``repro.acl`` scheme (``seal`` / ``unseal``), never by itself
SCHEME_PRIMITIVES = {"StreamCipher", "AuthenticatedCipher", "elgamal", "CPABE",
                     "random_key"}
#: the one exception: Cachet's pairwise comment keys
#: (``repro.integrity.relations``) are drawn with ``random_key``
PRIMITIVE_ALLOWED = {"cachet.py": {"random_key"}}


def _primitive_uses(source: str):
    """``(line, name)`` for every import or reference of a scheme primitive:
    imported names, module path parts, bare names and attributes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [
                alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names
                     for part in alias.name.split(".")]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found.update((node.lineno, name) for name in names
                     if name in SCHEME_PRIMITIVES)
    return sorted(found)


@pytest.mark.parametrize("module", sorted(
    path.name for path in (SRC / "systems").glob("*.py")))
def test_surveyed_systems_seal_through_the_schemes(module):
    allowed = PRIMITIVE_ALLOWED.get(module, set())
    found = [(line, name) for line, name in
             _primitive_uses((SRC / "systems" / module).read_text())
             if name not in allowed]
    assert not found, (
        f"systems/{module} holds content crypto of its own: {found}; "
        "seal and open through a repro.acl scheme")


def test_the_scheme_gate_sees_a_splice():
    """The checker itself: a primitive imported by name, by module, or
    reached as an attribute is caught; the scheme import is not."""
    source = (
        "from repro.crypto.symmetric import StreamCipher, random_key\n"
        "import repro.crypto.elgamal as eg\n"
        "from repro.acl import SymmetricKeyACL\n"
        "def seal(abe, symmetric, key):\n"
        "    symmetric.AuthenticatedCipher(key)\n"
        "    return abe.CPABE('TOY')\n")
    assert _primitive_uses(source) == [
        (1, "StreamCipher"), (1, "random_key"), (2, "elgamal"),
        (5, "AuthenticatedCipher"), (6, "CPABE")]


# -- the ``None``-path pay-down (ROADMAP item 5) ----------------------------------

#: ``is None`` / ``is not None`` comparisons per hot module.  A ceiling may
#: only ever be lowered: when a count drops, lower its number with it.
NONE_TEST_CEILINGS = {
    "fabric.py": 17,
    "overlay/network.py": 14,
    "dosn/api.py": 13,
    "dosn/feed.py": 6,
    "dosn/user.py": 5,
    "dosn/storage.py": 3,
    "cache/content.py": 6,
    "cache/prefetch.py": 1,
    "overlay/chord.py": 16,
    "storage2/quorum.py": 8,
    "storage2/repair.py": 7,
    "membership/swim.py": 6,
    "faults/resilience.py": 9,
    "overlay/kademlia.py": 5,
    "stack/pipeline.py": 6,
}


def _none_tests(source: str) -> int:
    return sum(isinstance(op, (ast.Is, ast.IsNot))
               and isinstance(right, ast.Constant) and right.value is None
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Compare)
               for op, right in zip(node.ops, node.comparators))


@pytest.mark.parametrize("relative", sorted(NONE_TEST_CEILINGS))
def test_none_tests_only_ratchet_down(relative):
    count = _none_tests((SRC / relative).read_text())
    assert count <= NONE_TEST_CEILINGS[relative], (
        f"{relative} tests `is None` {count} times, ceiling "
        f"{NONE_TEST_CEILINGS[relative]}: resolve the configuration once "
        "instead of re-testing it")
    assert _none_tests("a = x if x is not None else (y is None, z is 1)") == 2


# -- the knob census (ROADMAP item 7) ---------------------------------------------

#: options per class: the dataclass fields and ``__init__`` keywords that
#: have a default, less ``NOT_KNOBS`` — every one multiplies the
#: configurations the composed stack must be tested in.  Downward-only,
#: like the ceilings above; a class missing here is a new config class.
CONFIG_KNOB_CEILINGS = {
    "CacheConfig": 1, "ServiceConfig": 3, "OverloadConfig": 4,
    "DosnConfig": 12, "MembershipConfig": 0, "DefenseConfig": 0,
    "AdversaryConfig": 5, "ReplicationConfig": 5,
    "SymmetricKeyACL": 0, "PublicKeyACL": 0, "ABEACL": 0, "IBBEACL": 1,
    "HybridACL": 0, "RetryPolicy": 1, "CircuitBreaker": 0,
    "KademliaOverlay": 0, "KademliaNode": 0, "HybridOverlay": 1,
    "GossipOverlay": 0, "UniformLatency": 0, "DiurnalChurn": 1,
    "CachetNetwork": 0, "CuckooNetwork": 0, "DiasporaNetwork": 0,
    "PeersonNetwork": 0, "SafebookNetwork": 0, "SupernovaNetwork": 0,
}
#: what the census counts besides every dataclass named ``*Config``: the
#: ACL schemes, the resilience policies, the overlays with their latency
#: and churn models, and the surveyed-system models
CENSUS_CLASSES = {cls for cls in CONFIG_KNOB_CEILINGS
                  if not cls.endswith("Config")}
#: constructor arguments that are not options: what seeds a run, and the
#: crypto security level (the frozen harness names ``"TOY"``; tests run
#: ``TEST`` and ``STD``)
NOT_KNOBS = {"seed", "rng", "level"}
#: options no caller gives two values, and why each stays an option
UNSWEPT_KNOBS = {
    ("AdversaryConfig", "behaviors"):
        "how tests/adversary isolates one attack at a time",
    ("AdversaryConfig", "compromised"):
        "how tests/adversary and tests/obs name the attacking peers",
    ("DosnConfig", "concurrent"):
        "the frozen `benchmarks/perf` workload passes it",
    ("ReplicationConfig", "n"):
        "the frozen `benchmarks/perf` workload passes it",
    ("ReplicationConfig", "r"):
        "the frozen `benchmarks/perf` workload passes it",
    ("ReplicationConfig", "w"):
        "the frozen `benchmarks/perf` workload passes it",
    ("IBBEACL", "max_group_size"):
        "the frozen `benchmarks/perf` workload passes it",
}
REPO = pathlib.Path(__file__).parent.parent
#: where an option's values are read: the library, the benches (the
#: frozen harness included) and the scripts — not tests or examples
CALLER_ROOTS = ("src", "benchmarks", "scripts")
#: calls that copy a config with some fields replaced
_REPLACERS = {"replace", "_dc_replace", "with_overrides"}
#: the value of an option a call omits or sets to its default literal
_DEFAULT = object()
#: what a call that passes an option as an expression (a variable, a loop
#: value) gives it: any value, so the option is swept
_SWEPT = object()


def _class_options(node: ast.ClassDef):
    """``(positional parameter names, {option: default expression})`` of a
    class's ``__init__``, or of its dataclass fields; ``None`` when it has
    neither."""
    init = next((item for item in node.body
                 if isinstance(item, ast.FunctionDef)
                 and item.name == "__init__"), None)
    if init is not None:
        args = init.args
        positional = [arg.arg for arg in args.args[1:]]
        defaults = dict(zip(positional[len(positional)
                                       - len(args.defaults):],
                            args.defaults))
        defaults.update((arg.arg, default) for arg, default
                        in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None)
    elif any("dataclass" in ast.unparse(decorator)
             for decorator in node.decorator_list):
        fields = [item for item in node.body
                  if isinstance(item, ast.AnnAssign)
                  and "ClassVar" not in ast.unparse(item.annotation)]
        positional = [item.target.id for item in fields]
        defaults = {item.target.id: item.value for item in fields
                    if item.value is not None}
    else:
        return None
    return positional, {name: default for name, default in defaults.items()
                        if name not in NOT_KNOBS
                        and not name.startswith("_")}


def _census_options(sources, classes=CENSUS_CLASSES):
    """``{class: (positional names, {option: default})}`` of every
    ``*Config`` dataclass and every class in ``classes``."""
    found = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) \
                    and (node.name.endswith("Config")
                         or node.name in classes):
                options = _class_options(node)
                if options is not None:
                    found[node.name] = options
    return found


def _literal(node):
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return False, None


def _option_values(sources, options):
    """``{(class, option): values}`` over every call in ``sources``: an
    omitted option is its default, a literal equal to the default is the
    default, and any other expression is ``_SWEPT``."""
    values = {(cls, name): set() for cls, (_, names) in options.items()
              for name in names}

    def record(cls, name, given):
        if given is None:
            values[cls, name].add(_DEFAULT)
            return
        known, value = _literal(given)
        if not known:
            values[cls, name].add(_SWEPT)
            return
        default_known, default = _literal(options[cls][1][name])
        values[cls, name].add(
            _DEFAULT if default_known and value == default else repr(value))

    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = _name(node.func)
            given = {kw.arg: kw.value for kw in node.keywords if kw.arg}
            if name in options:
                positional, names = options[name]
                given.update(zip(positional, node.args))
                for option in names:
                    record(name, option, given.get(option))
            elif name in _REPLACERS:
                for cls, (_, names) in options.items():
                    for option in names.keys() & given.keys():
                        record(cls, option, given[option])
    return values


def _unswept_knobs(option_sources, caller_sources, classes=CENSUS_CLASSES):
    """The ``(class, option)`` pairs callers give fewer than two values."""
    options = _census_options(option_sources, classes)
    values = _option_values(caller_sources, options)
    return sorted(key for key, seen in values.items()
                  if len(seen) < 2 and _SWEPT not in seen)


def _sources(*roots):
    return [path.read_text() for root in roots
            for path in sorted((REPO / root).rglob("*.py"))]


def test_config_knobs_only_ratchet_down():
    counts = {cls: len(names)
              for cls, (_, names) in _census_options(_sources("src")).items()}
    assert sorted(counts) == sorted(CONFIG_KNOB_CEILINGS), (
        "a config class was added or removed: give it a ceiling")
    over = {cls: n for cls, n in counts.items()
            if n > CONFIG_KNOB_CEILINGS[cls]}
    assert not over, (
        f"{over} exceed CONFIG_KNOB_CEILINGS: a value with one setting in "
        "use is a module constant next to the code that reads it")


def test_every_config_knob_is_set_by_a_table_or_workload():
    unswept = _unswept_knobs(_sources("src"), _sources(*CALLER_ROOTS))
    assert unswept == sorted(UNSWEPT_KNOBS), (
        "every option takes two values somewhere under "
        f"{CALLER_ROOTS} or is listed in UNSWEPT_KNOBS with its reason (and "
        f"nothing listed is swept); unswept: {unswept}")


def test_the_census_sees_a_field_nobody_sets():
    config = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class CacheConfig:\n"
        "    capacity_per_reader: int = 256\n"
        "    warm_ratio: float = 0.5\n"
        "    seed: int = 0\n"
        "    def helper(self): pass\n"
        "class NotAConfig:\n"
        "    knob: int = 1\n"
        "class RetryPolicy:\n"
        "    def __init__(self, rng, attempts=3, *, jitter=0.5):\n"
        "        pass\n")
    assert {cls: sorted(names) for cls, (_, names)
            in _census_options([config], {"RetryPolicy"}).items()} == {
        "CacheConfig": ["capacity_per_reader", "warm_ratio"],
        "RetryPolicy": ["attempts", "jitter"]}

    def unswept(*callers):
        return _unswept_knobs([config], callers, {"RetryPolicy"})

    callers = ("cache = CacheConfig(capacity_per_reader=0)\n"
               "policy = RetryPolicy(rng, 4)\n")
    assert unswept(callers) == [
        ("CacheConfig", "capacity_per_reader"), ("CacheConfig", "warm_ratio"),
        ("RetryPolicy", "attempts"), ("RetryPolicy", "jitter")]
    # a second value sweeps an option; the default literal is no second value
    assert unswept(callers, "CacheConfig()\nCacheConfig(warm_ratio=0.5)\n"
                            "RetryPolicy(rng, 3, jitter=0.5)\n") == [
        ("CacheConfig", "warm_ratio"), ("RetryPolicy", "jitter")]
    for setter in ("CacheConfig(256, 0.9)", "CacheConfig(warm_ratio=0.9)",
                   "replace(config, warm_ratio=0.9)",
                   "CacheConfig(warm_ratio=ratio)"):
        assert ("CacheConfig", "warm_ratio") not in unswept(callers, setter)


# -- the reach gate (ROADMAP item 10) ---------------------------------------------

#: public names nothing but tests reaches, and why each stays anyway
REACH_EXEMPT = {
    "repro.crypto.abe.policy_satisfied":
        "the access-tree semantics CP-ABE decryption is held to: the oracle "
        "of tests/crypto/test_abe_ibbe_properties.py",
    "repro.stack.registry.unregister_mechanism":
        "test isolation for the module-global Table I registry",
    "repro.stack.spec.unregister_system":
        "test isolation for the module-global system-spec registry",
}
#: where any use of a name reaches it: the workloads, and the oracle the
#: crypto fast paths are held equal to
REACH_ROOTS = ("benchmarks", "examples", "scripts",
               "tests/crypto/reference.py")
PAPER_MAP = REPO / "docs" / "paper_map.md"
_REGISTRARS = {"register_mechanism"}
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _uses(tree: ast.AST):
    """``(identifier, enclosing definitions, is an attribute)`` of every
    ``Name`` and ``Attribute`` use, and of the original name of every
    aliased import (a plain ``from m import x`` re-export uses nothing)."""

    def walk(node: ast.AST, scope: tuple):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope += (".".join(scope[-1:] + (node.name,)),)
        if isinstance(node, ast.Name):
            yield node.id, scope, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, scope, True
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, scope, False) for alias in node.names
                        if alias.asname not in (None, alias.name))
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    return walk(tree, ())


def _defined(tree: ast.AST):
    """``[(name, is_class, [public method, ...])]`` of a module's public
    top-level definitions."""
    return [(node.name, isinstance(node, ast.ClassDef),
             [item.name for item in node.body
              if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not item.name.startswith("_")]
             if isinstance(node, ast.ClassDef) else [])
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _mapped(module: str, local: str, paths) -> bool:
    """Whether a backticked dotted path names ``local`` (``Name`` or
    ``Class.method``) of ``module``: the path ends in ``local`` and what
    precedes it is a prefix of the module path, so ``repro.faults.FaultPlan``
    maps ``repro.faults.plan.FaultPlan`` and a bare module path maps
    nothing inside the module."""
    local_parts, module_parts = local.split("."), module.split(".")
    return any(parts[-len(local_parts):] == local_parts
               and parts[:-len(local_parts)]
               == module_parts[:len(parts) - len(local_parts)]
               for parts in paths)


def _unreached(modules, reach_sources, paper_map: str):
    """Qualified names of the public definitions in ``modules`` (``{module:
    source}``) that nothing reaches: no use outside their own definition,
    none in ``reach_sources``, no Table I registration, no backticked path
    in ``paper_map``, and — for an ``on_<kind>`` handler, which
    ``SimNode.handle_message`` finds by ``getattr`` — no ``"<kind>"``
    literal.  Methods count only in classes neither mapped nor registered,
    and only an attribute use (``x.name``) or a string naming one reaches
    it: a bare ``Name`` sharing its identifier (a local ``pending``) is
    not a call of ``Simulator.pending``."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    reach_trees = [ast.parse(source) for source in reach_sources]
    src_uses = [(module, name, scope, attribute)
                for module, tree in trees.items()
                for name, scope, attribute in _uses(tree)]
    elsewhere = {(name, attribute) for tree in reach_trees
                 for name, _scope, attribute in _uses(tree)}
    strings = {node.value for tree in [*trees.values(), *reach_trees]
               for node in ast.walk(tree)
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)}
    registered = {_name(arg) for tree in trees.values()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _name(node.func).lstrip("_") in _REGISTRARS
                  for arg in node.args}
    paths = [match.group().split(".")
             for span in paper_map.split("`")[1::2]
             for match in [_DOTTED.match(span)] if match]

    def reached(module, local):
        name = local.rsplit(".", 1)[-1]
        method = "." in local
        return ((name, True) in elsewhere
                or not method and (name, False) in elsewhere
                or name in registered
                or name.startswith("on_") and name[3:] in strings
                or method and name in strings
                or _mapped(module, local, paths)
                or any(used == name and (attribute or not method)
                       and not (where == module and local in scope)
                       for where, used, scope, attribute in src_uses))

    found = []
    for module, tree in trees.items():
        for name, is_class, methods in _defined(tree):
            if not reached(module, name):
                found.append(f"{module}.{name}")
            if is_class and name not in registered \
                    and not _mapped(module, name, paths):
                found.extend(f"{module}.{name}.{method}" for method in methods
                             if not reached(module, f"{name}.{method}"))
    return sorted(found)


def _reach_verdict(unreached, exempt):
    """``(unreached and not exempt, exempt but reached)``."""
    return (sorted(set(unreached) - set(exempt)),
            sorted(set(exempt) - set(unreached)))


def _src_modules():
    return {".".join(("repro",) + path.relative_to(SRC).with_suffix("")
                     .parts).removesuffix(".__init__"): path.read_text()
            for path in sorted(SRC.rglob("*.py"))}


def _reach_sources():
    return [path.read_text() for root in REACH_ROOTS
            for path in ([REPO / root] if root.endswith(".py")
                         else sorted((REPO / root).rglob("*.py")))]


def test_every_public_name_is_reached():
    unlisted, stale = _reach_verdict(
        _unreached(_src_modules(), _reach_sources(), PAPER_MAP.read_text()),
        REACH_EXEMPT)
    assert not unlisted, (
        "nothing but tests reaches these public names: delete them, or map "
        "them in docs/paper_map.md and run them from a bench or an example "
        f"(safety code goes in REACH_EXEMPT with its reason): {unlisted}")
    assert not stale, f"REACH_EXEMPT lists names that are reached: {stale}"


def test_the_reach_gate_sees_what_only_tests_use():
    modules = {
        "repro.pkg": "from repro.pkg.mod import exported\n"
                     "__all__ = ['exported']\n",
        "repro.pkg.mod": "def exported(): pass\n"
                         "def recursive(n): return recursive(n - 1)\n"
                         "def aliased(): pass\n"
                         "def oracle_only(): pass\n"
                         "class Node:\n"
                         "    def on_ping(self, message): pass\n"
                         "    def on_pong(self, message): pass\n"
                         "    def pending(self): pass\n"
                         "    def called(self): pass\n"
                         "    def named(self): pass\n",
        "repro.pkg.user": "from repro.pkg.mod import aliased as _aliased\n"
                          "def run(net):\n"
                          "    pending = net.send('ping', Node())\n"
                          "    return net.called(pending, 'named')\n",
    }
    oracle = "from repro.pkg.mod import oracle_only\nassert oracle_only()\n"
    assert _unreached(modules, [], "") == [
        "repro.pkg.mod.Node.on_pong", "repro.pkg.mod.Node.pending",
        "repro.pkg.mod.exported", "repro.pkg.mod.oracle_only",
        "repro.pkg.mod.recursive", "repro.pkg.user.run"]
    assert _unreached(modules, [oracle, "run(net)", "pending = 1"],
                      "`repro.pkg.exported`, `repro.pkg.mod`") == [
        "repro.pkg.mod.Node.on_pong", "repro.pkg.mod.Node.pending",
        "repro.pkg.mod.recursive"]
    assert _unreached(modules, [oracle, "run(net)", "node.pending"],
                      "`repro.pkg.exported`") == [
        "repro.pkg.mod.Node.on_pong", "repro.pkg.mod.recursive"]
    assert (REPO / "tests/crypto/reference.py").read_text() \
        in _reach_sources()
    assert _reach_verdict(["repro.a.dead"], {"repro.a.dead": "oracle"}) \
        == ([], [])
    assert _reach_verdict([], {"repro.a.live": "stale"}) \
        == ([], ["repro.a.live"])


# -- the ledger of tests removed on purpose ---------------------------------------

def _resolves(test_id: str) -> bool:
    """Whether ``package.module[.Class]::test[param]`` names a test the
    suite still collects: the module imports, the class and the function
    exist, and a ``[param]`` suffix needs a parametrized function."""
    path, _, test = test_id.partition("::")
    name, _, param = test.partition("[")
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:] + [name]:
            owner = getattr(owner, attribute, None)
        break
    else:
        return False
    return owner is not None and (not param or any(
        mark.name == "parametrize"
        for mark in getattr(owner, "pytestmark", [])))


def test_removed_tests_stay_removed():
    entries = json.loads((REPO / "tests" / "removed_tests.json").read_text())
    for entry in entries:
        assert {"id", "reason"} <= set(entry), entry
    back = [entry["id"] for entry in entries if _resolves(entry["id"])]
    assert not back, (
        f"removed_tests.json lists tests the suite still has: {back}")
    here = "tests.test_layering"
    assert _resolves(f"{here}::test_removed_tests_stay_removed")
    assert _resolves(f"{here}::test_none_tests_only_ratchet_down[fabric.py]")
    assert not _resolves(
        f"{here}::test_the_census_sees_a_field_nobody_sets[x]")
    assert not _resolves(f"{here}.TestGone::test_x")
    assert not _resolves("tests.no_such_module::test_x")
