"""Overload-protection properties: determinism and byte-identity.

Two seeded guarantees gate this subsystem:

* **two-run determinism** — shed decisions, deadline expiries, budget
  exhaustions and queue peaks are pure functions of the seed: the same
  hotspot-under-loss workload run twice produces identical counters
  (shedding draws no RNG; deadlines and budgets are virtual-time
  arithmetic);
* **zero new draws** — with ``overload=None`` no service state exists
  and no code path changes, and even a service model that never sheds
  and never times out consumes the *identical* RNG stream as no service
  model at all (the queue adds latency, never a draw).

Plus the end-to-end failure surface: expired deadlines raise
:class:`DeadlineExceededError` from lookups and quorum reads, saturated
holders raise :class:`OverloadedError`, and
``DosnConfig(overload=...)`` threads the stack through the fabric.
"""

import pytest

from repro.dosn.api import DosnConfig, DosnNetwork
from repro.exceptions import DeadlineExceededError, OverloadedError
from repro.fabric import Fabric
from repro.faults import (FaultPlan, LossBurst, OverloadConfig, RetryPolicy,
                          ServiceConfig)
from repro.overlay.chord import ChordRing
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.simulator import FixedLatency
from repro.storage2 import ReplicatedStore, ReplicationConfig

N = 12
HOT = "hotkey"


def _burst_plan():
    return FaultPlan(seed=9).add(
        LossBurst(rate=0.25, mean_burst=5.0, mean_gap=10.0,
                  start=0.0, end=500.0))


def _hotspot(overload, install_late=True, reads=18):
    """A hot-key quorum workload under burst loss; returns its fabric."""
    fab = Fabric.create(seed=42, faults=_burst_plan(),
                        retry=RetryPolicy(max_attempts=3))
    ring = ChordRing(fab, successor_list_size=4, replication=3)
    for i in range(N):
        ring.add_node(f"p{i}")
    ring.build()
    store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
    store.put("p0", HOT, b"payload")
    if overload is not None and install_late:
        fab.install_overload(overload)
        if overload.retry_budget:
            # a bucket drained to four tokens, so the hotspot exhausts it
            fab.channel.retry_budget.tokens = 4.0
    fab.network.stats.reset()
    for j in range(reads):
        fab.sim.run(until=5.0 + j * 0.2)
        try:
            store.get(f"p{(j % (N - 1)) + 1}", HOT)
        except (OverloadedError, DeadlineExceededError, Exception):
            pass
    return fab, store


class _RecordingRng:
    """Wraps an RNG, logging every draw so two streams can be compared."""

    def __init__(self, inner):
        self._inner = inner
        self.draws = []

    def random(self):
        value = self._inner.random()
        self.draws.append(round(value, 12))
        return value

    def uniform(self, low, high):
        value = self._inner.uniform(low, high)
        self.draws.append(round(value, 12))
        return value

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _record_draws(fab):
    net_rng = _RecordingRng(fab.network._rng)
    fab.network._rng = net_rng
    chan_rng = _RecordingRng(fab.channel._rng)
    fab.channel._rng = chan_rng
    return net_rng, chan_rng


#: holders serve ~3.3 req/s against a 5 reads/s hotspot — saturated
PROTECTED = OverloadConfig(
    service=ServiceConfig(service_time=0.3, queue_limit=2,
                          timeout=1.0),
    op_budget=1.5)


class TestDeterminism:
    def test_two_runs_are_byte_identical(self):
        first, _ = _hotspot(PROTECTED)
        second, _ = _hotspot(PROTECTED)
        assert repr(first.network.stats.summary()) == \
            repr(second.network.stats.summary())
        assert first.network.queue_peak == second.network.queue_peak
        assert first.channel.retry_budget.tokens == \
            second.channel.retry_budget.tokens
        assert first.network.stats.budget_exhausted == \
            second.network.stats.budget_exhausted

    def test_the_workload_actually_exercises_the_stack(self):
        fab, _ = _hotspot(PROTECTED)
        summary = fab.network.stats.summary()
        assert summary["shed"] > 0  # the hotspot saturated the holders
        assert max(fab.network.queue_peak.values()) >= 1


class TestByteIdentity:
    def test_overload_none_runs_no_service_state(self):
        fab, _ = _hotspot(None)
        summary = fab.network.stats.summary()
        assert fab.network.service is None
        assert fab.network.queue_peak == {}
        assert summary["shed"] == 0
        assert summary["deadline_expired"] == 0
        assert summary["budget_exhausted"] == 0

    def test_harmless_service_model_moves_no_rng_draw(self):
        """The queue prices latency; it must never consume randomness.

        A service model that can neither shed (unbounded queue) nor
        time anything out (huge fixed timeout, tiny service time) prices
        every admission the no-service run never made — and the two runs
        must still draw the identical random stream, because admission
        is deterministic.
        """
        harmless = OverloadConfig(
            service=ServiceConfig(service_time=1e-6, queue_limit=None,
                                  timeout=1e6),
            op_budget=None, retry_budget=False, adaptive_timeout=False)

        bare, bare_store = _hotspot(None)
        bare_net, bare_chan = _record_draws(bare)
        priced, priced_store = _hotspot(harmless)
        priced_net, priced_chan = _record_draws(priced)
        # replay the same read tail on both fabrics, recording draws
        for j in range(12):
            for fab, store in ((bare, bare_store),
                               (priced, priced_store)):
                fab.sim.run(until=fab.sim.now + 0.2)
                try:
                    store.get(f"p{(j % (N - 1)) + 1}", HOT)
                except Exception:
                    pass
        assert bare_net.draws == priced_net.draws
        assert bare_chan.draws == priced_chan.draws

    def test_full_workload_draw_stream_is_unmoved(self):
        """End to end: the harmless service model leaves the whole
        hotspot workload's stats fingerprint unchanged except latency."""
        harmless = OverloadConfig(
            service=ServiceConfig(service_time=1e-6, queue_limit=None,
                                  timeout=1e6),
            op_budget=None, retry_budget=False, adaptive_timeout=False)
        bare = _hotspot(None)[0].network.stats.summary()
        priced = _hotspot(harmless)[0].network.stats.summary()
        for key in ("messages", "retries", "fault_drops", "shed",
                    "deadline_expired", "budget_exhausted", "hedges"):
            assert bare[key] == priced[key], key


class TestFailureSurface:
    def test_starved_deadline_raises_from_quorum_read(self):
        # install the starved budget only after bootstrap, so setup's
        # own lookups are not the ones that trip it
        config = OverloadConfig(service=ServiceConfig(),
                                op_budget=0.01, retry_budget=False,
                                adaptive_timeout=False)
        fab = Fabric.create(seed=7,
                            retry=RetryPolicy(max_attempts=2))
        ring = ChordRing(fab, successor_list_size=4, replication=3)
        for i in range(8):
            ring.add_node(f"p{i}")
        ring.build()
        store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
        store.put("p0", HOT, b"payload")
        fab.install_overload(config)
        with pytest.raises(DeadlineExceededError):
            store.get("p1", HOT)
        assert fab.network.stats.deadline_expired >= 1

    def test_starved_deadline_raises_from_chord_lookup(self):
        config = OverloadConfig(service=ServiceConfig(),
                                op_budget=1e-6, retry_budget=False,
                                adaptive_timeout=False)
        fab = Fabric.create(seed=7)
        ring = ChordRing(fab, successor_list_size=4, replication=2)
        for i in range(8):
            ring.add_node(f"p{i}")
        ring.build()
        fab.install_overload(config)
        with pytest.raises(DeadlineExceededError):
            ring.lookup("p0", "somekey")
        assert fab.network.stats.deadline_expired >= 1

    def test_a_kademlia_round_is_charged_its_slowest_query(self):
        # every query is a 0.1 s round trip; the first round's three
        # launch together, so it costs 0.1 s, not their 0.3 s sum, and
        # a 0.15 s budget is enough
        fab = Fabric.create(seed=7, latency=FixedLatency(0.05),
                            overload=OverloadConfig(
                                service=None, op_budget=0.15,
                                retry_budget=False, adaptive_timeout=False))
        overlay = KademliaOverlay(fab)
        for i in range(4):
            overlay.add_node(f"k{i}")
        overlay.bootstrap()
        result = overlay.lookup("k0", "somekey")
        assert result.rpcs >= 3
        assert fab.network.stats.deadline_expired == 0

    def test_saturated_holders_raise_overloaded(self):
        config = OverloadConfig(
            service=ServiceConfig(service_time=1.0, queue_limit=1,
                                  timeout=30.0),
            op_budget=None, retry_budget=False, adaptive_timeout=False)
        fab = Fabric.create(seed=7)
        ring = ChordRing(fab, successor_list_size=4, replication=3)
        for i in range(8):
            ring.add_node(f"p{i}")
        ring.build()
        store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
        store.put("p0", HOT, b"payload")
        fab.install_overload(config)
        assert store.get("p1", HOT).payload == b"payload"  # fills queues
        with pytest.raises(OverloadedError):
            store.get("p2", HOT)  # frozen clock: every probe sheds
        assert fab.network.stats.shed >= 3


class TestDosnWiring:
    def test_config_threads_overload_through_the_fabric(self):
        overload = OverloadConfig(
            service=ServiceConfig(service_time=1e-4, queue_limit=None),
            op_budget=5.0, adaptive_timeout=False)
        config = DosnConfig(architecture="dht", seed=3, resilient=True,
                            replication=ReplicationConfig(n=3, r=2, w=2),
                            overload=overload)
        net = DosnNetwork(config=config)
        for i in range(8):
            net.add_user(f"u{i}")
        net.befriend("u0", "u1")
        assert net.fabric.overload is overload
        assert net.fabric.network.service is overload.service
        assert net.fabric.channel.retry_budget is not None
        cid = net.post("u0", "hello under load control")
        assert net.read("u1", "u0", cid) is not None

    def test_default_config_has_no_overload(self):
        net = DosnNetwork(config=DosnConfig(architecture="dht", seed=1))
        assert net.fabric.overload is None
        assert net.fabric.network.service is None
