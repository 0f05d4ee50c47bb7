"""``NetworkStats`` is a read-only view derived from the metrics registry.

The oracle below never looks at the registry: it recounts the flat
aggregates from what the trace saw (``net.send`` / ``net.deliver`` /
``net.rpc`` span attributes) and from the messages themselves, over
random op sequences on a fabric with every failure source switched on.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import Fabric
from repro.faults import (CircuitBreaker, Corruption, FaultPlan, LossBurst,
                          OverloadConfig, Partition, RetryPolicy,
                          ServiceConfig)
from repro.overlay import NetworkStats
from repro.overlay.network import STATS_FIELDS, Message, SimNode

PEERS = ("a", "b", "c", "d", "e")
#: RPC failure causes whose attempt the caller waits out
WAITED_OUT = ("partition", "offline", "loss", "fault", "slow")

SUMMARY_KEYS = [
    "messages", "bytes", "drops", "timeouts", "corrupted", "failures",
    "retries", "breaker_trips", "breaker_fastfails", "hedges",
    "fault_drops", "shed", "deadline_expired", "budget_exhausted",
    "misrouted", "forged_routes"]


class _Sink(SimNode):
    def on_ping(self, message):
        pass


def _fabric(seed):
    plan = (FaultPlan(seed=seed, horizon=200.0)
            .add(Partition(groups=[{"d"}], start=2.0, end=12.0))
            .add(LossBurst(rate=0.5, mean_burst=4.0, mean_gap=4.0,
                           start=0.0, end=200.0))
            .add(Corruption(rate=0.3)))
    fab = Fabric.create(
        seed=seed, loss_rate=0.1, faults=plan, tracing=True,
        retry=RetryPolicy(max_attempts=3),
        breaker=CircuitBreaker(),
        overload=OverloadConfig(
            service=ServiceConfig(service_time=0.2, queue_limit=1,
                                  timeout=0.35),
            op_budget=None, retry_budget=False, adaptive_timeout=False))
    for name in PEERS:
        fab.network.register(_Sink(name))
    return fab


def _recount(spans, sent):
    """The aggregates as the trace and the messages tell them."""
    seen = dict.fromkeys(("messages", "drops", "timeouts", "fault_drops",
                          "corrupted", "shed"), 0)
    seen["messages"] = len(sent)
    seen["corrupted"] = sum(message.corrupted for message in sent)
    for span in spans:
        if span.name in ("net.send", "net.deliver"):
            cause = span.attrs.get("dropped")
            if cause is not None:
                seen["drops"] += 1
                seen["fault_drops"] += cause in ("partition", "fault")
            continue
        if span.name != "net.rpc":
            continue
        failed = span.attrs.get("failed")
        if failed == "overloaded":
            seen["shed"] += 1
            seen["messages"] += 2  # the rejection rides back
            continue
        direction, _, cause = (failed or "ok/").partition("/")
        seen["messages"] += 1 if direction == "request" else 2
        seen["timeouts"] += cause in WAITED_OUT
        seen["fault_drops"] += cause in ("partition", "fault")
        seen["corrupted"] += cause == "corruption"
    return seen


_peer = st.sampled_from(PEERS)
_op = st.one_of(
    st.tuples(st.sampled_from(("send", "rpc", "burst", "call")), _peer,
              _peer),
    st.tuples(st.just("hedged"), _peer,
              st.lists(_peer, min_size=1, max_size=3, unique=True)),
    st.tuples(st.just("advance"),
              st.floats(min_value=0.05, max_value=3.0), st.none()),
    st.tuples(st.just("toggle"), _peer, st.none()))


class TestViewAgainstTheTrace:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           ops=st.lists(_op, min_size=1, max_size=60))
    def test_summary_equals_a_recount_from_spans(self, seed, ops):
        fab = _fabric(seed)
        net, sim = fab.network, fab.sim
        sent = []
        for op, x, y in ops:
            if op == "send":
                sent.append(Message(kind="ping", src=x, dst=y))
                net.send(sent[-1])
            elif op == "rpc":
                net.rpc_issue(x, y, kind="probe")
            elif op == "burst":  # overruns y's one-slot service queue
                for _ in range(3):
                    net.rpc_issue(x, y, kind="probe")
            elif op == "call":
                fab.channel.call(x, y, kind="probe")
            elif op == "hedged":
                fab.channel.hedged(x, y, kind="probe")
            elif op == "advance":
                sim.run(until=sim.now + x)
            else:
                node = net.nodes[x]
                node.go_offline() if node.online else node.go_online()
        sim.run(until=sim.now + 1.0)  # deliver what is still in flight
        seen = _recount(fab.tracer.spans, sent)
        summary = net.stats.summary()
        assert {key: summary[key] for key in seen} == seen
        assert summary["failures"] == seen["timeouts"] + seen["corrupted"]


class TestReadOnlyView:
    def test_bare_view_reads_all_zero_with_todays_keys(self):
        summary = NetworkStats().summary()
        assert sorted(summary) == sorted(SUMMARY_KEYS)
        assert not any(summary.values())
        assert set(STATS_FIELDS) == set(SUMMARY_KEYS) - {"failures"}

    def test_assigning_any_field_raises(self):
        stats = _fabric(1).network.stats
        for field in SUMMARY_KEYS:
            with pytest.raises(AttributeError):
                setattr(stats, field, 3)
        assert not hasattr(stats, "__dict__")  # nothing can shadow a field

    def test_the_docs_render_the_derivation_table(self):
        docs = pathlib.Path(__file__).parents[2] / "docs" / "observability.md"
        rows = {line.split("`")[1]: line
                for line in docs.read_text().splitlines()
                if line.startswith("| `")}
        for field, sources in STATS_FIELDS.items():
            for family, _label, values in sources:
                assert f"`{family}" in rows[field]
                assert all(value in rows[field] for value in values)

    def test_unknown_field_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="by_kind"):
            NetworkStats().by_kind

    def test_the_view_and_the_network_share_the_message_handles(self):
        fab = _fabric(1)
        fab.network.rpc_issue("a", "b")
        assert fab.network.stats.messages \
            == fab.metrics.get_counter_value("net.messages") > 0
        assert fab.network.stats.bytes \
            == fab.metrics.get_counter_value("net.bytes") > 0
