"""Overload protection units: service queues, deadlines, budgets, breaker.

Covers the PR-9 mechanisms at the network/channel layer — the service
queue's pricing and shedding, deadline fast-failure, the retry budget,
adaptive timeouts, the ``RETRY_MAX_DELAY`` backoff cap, and the circuit
breaker's single half-open probe (the anti-stampede claim).
"""

import pytest

from repro.exceptions import SimulationError
from repro.fabric import Fabric
from repro.faults import (AdaptiveTimeout, CircuitBreaker, Deadline,
                          OverloadConfig, RetryBudget, RetryPolicy,
                          ServiceConfig)
from repro.faults.overload import (NO_DEADLINE, RETRY_BUDGET_CAPACITY,
                                   RETRY_REFILL_PER_SUCCESS, TIMEOUT_CEILING,
                                   TIMEOUT_FLOOR, TIMEOUT_MULTIPLIER)
from repro.faults.resilience import (BREAKER_COOLDOWN,
                                     BREAKER_FAILURE_THRESHOLD,
                                     RETRY_BASE_DELAY, RETRY_JITTER,
                                     RETRY_MAX_DELAY, RETRY_MULTIPLIER)
from repro.overlay.simulator import FixedLatency


def _fab(service=None, retry=None, breaker=None, **overload_kw):
    overload = None
    if service is not None or overload_kw:
        # protections are opt-in per test: only what a test names is on
        overload_kw.setdefault("op_budget", None)
        overload_kw.setdefault("retry_budget", False)
        overload_kw.setdefault("adaptive_timeout", False)
        overload = OverloadConfig(service=service, **overload_kw)
    fab = Fabric.create(seed=1, latency=FixedLatency(0.05), retry=retry,
                        breaker=breaker,
                        resilient=retry is not None or breaker is not None,
                        overload=overload)
    from repro.overlay.network import SimNode
    for name in ("a", "b", "c"):
        fab.network.register(SimNode(name))
    return fab


class TestConfigValidation:
    def test_service_config_rejects_bad_values(self):
        with pytest.raises(SimulationError):
            ServiceConfig(service_time=0.0)
        with pytest.raises(SimulationError):
            ServiceConfig(queue_limit=0)
        with pytest.raises(SimulationError):
            ServiceConfig(timeout=-1.0)

    def test_overload_config_rejects_bad_budget(self):
        with pytest.raises(SimulationError):
            OverloadConfig(op_budget=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_floats_are_rejected(self, value):
        """``nan <= 0`` is False: a NaN ``op_budget`` used to mint a
        deadline that never expires, silently switching propagation off."""
        with pytest.raises(SimulationError):
            OverloadConfig(op_budget=value)
        with pytest.raises(SimulationError):
            ServiceConfig(service_time=value)
        with pytest.raises(SimulationError):
            ServiceConfig(timeout=value)

    def test_mint_deadline_honours_disabled_budget(self):
        # a disabled budget mints nothing: the fabric never binds it
        assert _fab(service=ServiceConfig()).op("a").deadline is NO_DEADLINE
        deadline = OverloadConfig(op_budget=2.0).mint_deadline(5.0)
        assert deadline.expires_at == pytest.approx(7.0)

    def test_install_overload_is_once_only(self):
        fab = _fab(service=ServiceConfig())
        with pytest.raises(SimulationError):
            fab.network.install_overload(OverloadConfig())

    def test_max_delay_validation(self):
        # what RetryPolicy checked when the backoff had settings: a
        # positive cap no lower than the base, and jitter within [0, 1]
        assert 0.0 < RETRY_BASE_DELAY <= RETRY_MAX_DELAY
        assert 0.0 <= RETRY_JITTER <= 1.0
        with pytest.raises(SimulationError):
            RetryPolicy(max_attempts=0)


class TestRetryPolicyMaxDelay:
    def test_backoff_is_capped_at_max_delay(self):
        policy = RetryPolicy()

        class _Rng:
            def random(self):
                return 0.5  # zero jitter either way

        rng = _Rng()
        assert policy.backoff(0, rng) == pytest.approx(RETRY_BASE_DELAY)
        # the first exponent whose uncapped term passes the cap
        capped = next(n for n in range(64) if RETRY_BASE_DELAY
                      * RETRY_MULTIPLIER ** n > RETRY_MAX_DELAY)
        assert policy.backoff(capped - 1, rng) < RETRY_MAX_DELAY
        assert policy.backoff(capped, rng) == pytest.approx(RETRY_MAX_DELAY)
        assert policy.backoff(capped + 20, rng) == \
            pytest.approx(RETRY_MAX_DELAY)

    def test_default_cap_leaves_default_policy_unchanged(self):
        # three default attempts reach base * mult**1 = 0.5s << 30s cap
        policy = RetryPolicy()

        class _Rng:
            def random(self):
                return 0.5

        assert policy.backoff(1, _Rng()) == pytest.approx(0.5)


class TestDeadline:
    def test_remaining_expired_minus(self):
        deadline = Deadline(10.0 + 2.0)
        assert deadline.remaining(10.0) == pytest.approx(2.0)
        assert not deadline.expired(10.0)
        assert deadline.expired(10.0, spent=2.0)
        assert deadline.expired(12.0)
        child = deadline.minus(1.5)
        assert child.remaining(10.0) == pytest.approx(0.5)


class TestRetryBudget:
    def test_spend_exhaust_and_refill(self):
        budget = RetryBudget()
        budget.tokens = 2.0  # a bucket drained to its last two tokens
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        assert budget.tokens == 0.0  # a denied retry spends nothing
        budget.on_success()
        assert budget.tokens == pytest.approx(RETRY_REFILL_PER_SUCCESS)
        assert not budget.try_spend()  # less than the 1-token cost
        for _ in range(5):
            budget.on_success()
        assert budget.try_spend()

    def test_refill_never_exceeds_capacity(self):
        budget = RetryBudget()
        assert budget.tokens == RETRY_BUDGET_CAPACITY  # starts full
        budget.on_success()
        assert budget.tokens == RETRY_BUDGET_CAPACITY


class TestAdaptiveTimeout:
    def test_ewma_and_clamp(self):
        adaptive = AdaptiveTimeout()
        assert adaptive.timeout_for("x") is None  # no sample yet
        adaptive.observe("x", 0.3)
        assert adaptive.timeout_for("x") == \
            pytest.approx(TIMEOUT_MULTIPLIER * 0.3)
        adaptive.observe("x", 0.1)  # ewma -> 0.8 * 0.3 + 0.2 * 0.1
        assert adaptive.timeout_for("x") == \
            pytest.approx(TIMEOUT_MULTIPLIER * 0.26)
        for _ in range(40):
            adaptive.observe("x", 0.01)
        assert adaptive.timeout_for("x") == TIMEOUT_FLOOR
        for _ in range(40):
            adaptive.observe("x", 50.0)
        assert adaptive.timeout_for("x") == TIMEOUT_CEILING


class TestServiceQueue:
    def test_queue_charges_service_and_wait_time(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=4,
                                         timeout=10.0))
        ok1, rtt1, _ = fab.network.rpc_issue("a", "b")
        ok2, rtt2, _ = fab.network.rpc_issue("a", "b")
        assert ok1 and ok2
        assert rtt1 == pytest.approx(0.05 + 1.0 + 0.05)
        # issued at the same frozen instant: waits behind the first job
        assert rtt2 == pytest.approx(0.05 + 2.0 + 0.05)
        assert fab.network.queue_peak == {"b": 1}

    def test_full_queue_sheds_reject_cheaply(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=2,
                                         timeout=10.0))
        net = fab.network
        assert net.rpc_issue("a", "b").ok and net.rpc_issue("a", "b").ok
        before = net.stats.messages
        ok, rtt, _ = net.rpc_issue("a", "b")
        assert not ok
        assert net.stats.shed == 1
        # a rejection rides back: two messages, one wire round trip, no
        # service time billed and no timeout counted
        assert net.stats.messages == before + 2
        assert rtt == pytest.approx(0.10)
        assert net.stats.timeouts == 0

    def test_backlog_drains_with_virtual_time(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=2,
                                         timeout=10.0))
        net = fab.network
        assert net.rpc_issue("a", "b").ok and net.rpc_issue("a", "b").ok
        assert not net.rpc_issue("a", "b").ok  # full at the frozen instant
        fab.sim.run(until=10.0)
        ok, rtt, _ = net.rpc_issue("a", "b")
        assert ok and rtt == pytest.approx(0.05 + 1.0 + 0.05)

    def test_slow_response_reads_as_timeout(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=8,
                                         timeout=0.5))
        ok, rtt, _ = fab.network.rpc_issue("a", "b")
        assert not ok
        assert rtt == pytest.approx(0.5)  # the client stopped waiting
        assert fab.network.stats.timeouts == 1
        assert fab.network.stats.shed == 0

    def test_shed_decision_draws_no_rng(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=1,
                                         timeout=10.0))
        net = fab.network
        assert net.rpc_issue("a", "b").ok
        state = net._rng.getstate()
        # both wire latencies are drawn, then the deterministic rejection
        assert not net.rpc_issue("a", "b").ok
        net._rng.setstate(state)
        assert not net.rpc_issue("a", "b").ok
        assert net.stats.shed == 2

    def test_summary_reports_overload_counters(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=1,
                                         timeout=10.0),
                   retry=RetryPolicy(max_attempts=3),
                   retry_budget=True)
        fab.channel.retry_budget.tokens = 1.0
        stats = fab.network.stats
        summary = stats.summary()
        assert summary["shed"] == 0
        assert summary["deadline_expired"] == 0
        assert summary["budget_exhausted"] == 0
        assert fab.network.rpc_issue("a", "b").ok
        # b's one-slot queue is full: both attempts are shed, and the
        # bucket's single token buys only the first retry
        assert not fab.channel.call("a", "b")[0]
        assert not fab.channel.call(
            "a", "c", deadline=Deadline(fab.sim.now))[0]
        summary = stats.summary()
        assert summary["shed"] == stats.shed == 2
        assert summary["deadline_expired"] == stats.deadline_expired == 1
        assert summary["budget_exhausted"] == stats.budget_exhausted == 1
        stats.reset()
        summary = stats.summary()
        assert summary["shed"] == stats.shed == 0
        assert summary["deadline_expired"] == 0
        assert summary["budget_exhausted"] == 0


class TestChannelOverload:
    def test_expired_deadline_fails_before_any_attempt(self):
        fab = _fab(service=ServiceConfig(), retry=RetryPolicy())
        before = fab.network.stats.messages
        ok, elapsed = fab.channel.call(
            "a", "b", deadline=Deadline(fab.sim.now))
        assert not ok and elapsed == 0.0
        assert fab.network.stats.messages == before  # no RPC was issued
        assert fab.network.stats.deadline_expired == 1

    def test_deadline_stops_mid_retry_loop(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=1,
                                         timeout=10.0),
                   retry=RetryPolicy(max_attempts=5))
        net = fab.network
        assert net.rpc_issue("a", "b").ok  # saturate b's one-slot queue
        # every attempt sheds (the clock is frozen, the queue cannot
        # drain) and each backoff burns budget until the deadline trips:
        # three attempts and their backoffs take at least 1.175 s
        ok, _ = fab.channel.call("a", "b",
                                 deadline=Deadline(fab.sim.now + 1.0))
        assert not ok
        assert net.stats.deadline_expired == 1
        assert 0 < net.stats.shed < 5

    def test_retry_budget_caps_attempts(self):
        fab = _fab(service=ServiceConfig(),
                   retry=RetryPolicy(max_attempts=4),
                   retry_budget=True)
        fab.channel.retry_budget.tokens = 1.0
        fab.network.nodes["b"].go_offline()
        ok, _ = fab.channel.call("a", "b")
        assert not ok
        assert fab.network.stats.retries == 1  # one token, one retry
        assert fab.network.stats.budget_exhausted == 1
        assert fab.channel.retry_budget.tokens == pytest.approx(0.0)
        # successes refill the bucket
        ok, _ = fab.channel.call("a", "c")
        assert ok
        assert fab.channel.retry_budget.tokens == \
            pytest.approx(RETRY_REFILL_PER_SUCCESS)

    def test_shed_does_not_feed_the_breaker(self):
        breaker = CircuitBreaker()
        attempts = BREAKER_FAILURE_THRESHOLD + 1
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=1,
                                         timeout=10.0),
                   retry=RetryPolicy(max_attempts=attempts),
                   breaker=breaker)
        net = fab.network
        assert net.rpc_issue("a", "b").ok  # saturate
        ok, _ = fab.channel.call("a", "b")
        assert not ok and net.stats.shed == attempts
        # more overloaded failures than the threshold: still closed —
        # the peer is alive and honestly rejecting
        assert breaker.state("b", fab.sim.now) == "closed"
        # a genuine failure still trips it
        net.nodes["c"].go_offline()
        fab.channel.call("a", "c")
        assert breaker.state("c", fab.sim.now) == "open"

    def test_fabric_wires_budget_and_service(self):
        fab = _fab(service=ServiceConfig(), retry=RetryPolicy(),
                   retry_budget=True)
        assert fab.network.service is not None
        assert fab.channel.retry_budget.tokens == RETRY_BUDGET_CAPACITY
        assert fab.overload is not None

    def test_no_overload_means_no_service_state(self):
        fab = Fabric.create(seed=1, resilient=True)
        assert fab.overload is None
        assert fab.network.service is None
        assert fab.channel.retry_budget is None


def _trip(breaker, dst, now):
    """Feed ``dst`` the failures that open its breaker; whether they did."""
    return [breaker.record_failure(dst, now)
            for _ in range(BREAKER_FAILURE_THRESHOLD)][-1]


class TestBreakerSingleProbe:
    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker()
        assert _trip(breaker, "d", now=0.0)  # trips open
        # still cooling down
        assert not breaker.allow("d", now=BREAKER_COOLDOWN / 2)
        # cooled down: the first caller claims the single probe slot...
        assert breaker.allow("d", now=BREAKER_COOLDOWN)
        # ...and the stampede behind it keeps failing fast
        assert not breaker.allow("d", now=BREAKER_COOLDOWN)
        assert not breaker.allow("d", now=BREAKER_COOLDOWN + 5.0)

    def test_successful_probe_closes_and_releases(self):
        breaker = CircuitBreaker()
        _trip(breaker, "d", now=0.0)
        cooled = BREAKER_COOLDOWN
        assert breaker.allow("d", now=cooled)
        breaker.record_success("d")
        assert breaker.state("d", now=cooled) == "closed"
        assert breaker.allow("d", now=cooled)
        assert breaker.allow("d", now=cooled)  # closed: no probe gate

    def test_failed_probe_reopens_and_releases(self):
        breaker = CircuitBreaker()
        _trip(breaker, "d", now=0.0)
        cooled = BREAKER_COOLDOWN
        assert breaker.allow("d", now=cooled)
        breaker.record_failure("d", now=cooled)  # the probe failed
        assert breaker.state("d", now=cooled) == "open"
        assert not breaker.allow("d", now=cooled + 5.0)
        # the next cooldown admits exactly one probe again
        assert breaker.allow("d", now=2 * cooled)
        assert not breaker.allow("d", now=2 * cooled)

    def test_stampede_through_the_channel(self):
        """End to end: concurrent callers after cooldown -> one real probe."""
        breaker = CircuitBreaker()
        fab = _fab(retry=RetryPolicy(max_attempts=1), breaker=breaker)
        net = fab.network
        net.nodes["b"].go_offline()
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            fab.channel.call("a", "b")  # trips the breaker
        net.nodes["b"].go_online()
        fab.sim.run(until=BREAKER_COOLDOWN + 10.0)
        before = net.stats.messages
        # simulate a stampede: claim the probe, then race a second caller
        # in before its outcome lands
        assert breaker.allow("b", fab.sim.now)
        ok, _ = fab.channel.call("a", "b")  # the racing caller
        assert not ok
        assert net.stats.messages == before  # fast-failed, no RPC sent
        assert net.stats.breaker_fastfails >= 1

    def test_a_shed_probe_releases_the_slot(self):
        """A half-open probe the peer sheds neither closes nor re-opens
        the breaker, and it does not hold the probe slot for good: once
        the queue drains, the next caller probes and closes it."""
        breaker = CircuitBreaker()
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=1,
                                         timeout=10.0),
                   retry=RetryPolicy(max_attempts=1), breaker=breaker)
        net = fab.network
        net.nodes["b"].go_offline()
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            assert not fab.channel.call("a", "b")[0]
        assert breaker.state("b", fab.sim.now) == "open"
        net.nodes["b"].go_online()
        fab.sim.run(until=BREAKER_COOLDOWN + 10.0)
        assert net.rpc_issue("c", "b").ok  # fill b's one-slot queue
        ok, _ = fab.channel.call("a", "b")  # the half-open probe
        assert not ok and net.stats.shed == 1
        assert breaker.state("b", fab.sim.now) == "half_open"
        fastfails = net.stats.breaker_fastfails
        fab.sim.run(until=fab.sim.now + 10.0)  # b's queue drains
        ok, _ = fab.channel.call("a", "b")
        assert ok
        assert net.stats.breaker_fastfails == fastfails
        assert breaker.state("b", fab.sim.now) == "closed"
