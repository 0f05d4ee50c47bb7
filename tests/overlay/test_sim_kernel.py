"""Tests for the concurrent virtual-time kernel (SimFuture + combinators).

Three contracts are pinned here:

* **settle determinism** — two runs at one seed settle every fan-out in
  the identical ``(completion, seq)`` order;
* **the latency model** — ``elapsed`` is the critical path (n-th
  satisfying completion), strictly below the sum of the branches; a
  staggered hedge race settles on its earliest accepted response;
* **draw compatibility** — the synchronous ``rpc`` wrapper over
  ``rpc_issue`` consumes the RNG identically to the pre-kernel code: a
  golden trace recorded against the blocking implementation must
  reproduce byte-for-byte.
"""

import pytest

from repro.exceptions import SimulationError
from repro.overlay.network import SimNetwork, SimNode
from repro.overlay.simulator import (FanoutResult, SimFuture, Simulator,
                                     gather, hedge_of, quorum_of)


class TestScheduleValidation:
    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule(float("nan"), lambda: None)

    def test_inf_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule(float("inf"), lambda: None)

    def test_negative_delay_still_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="past"):
            sim.schedule(-1.0, lambda: None)

    def test_heap_stays_ordered_after_rejection(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: fired.append("poison"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]


class TestSimFuture:
    def test_settles_at_issue_with_completion_time(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        future = sim.future(0.25, value=("ok", 0.25))
        assert future.issued_at == 5.0
        assert future.completion == 5.25
        assert future.value == ("ok", 0.25)
        assert future.ok

    def test_sequence_is_monotone(self):
        sim = Simulator()
        seqs = [sim.future(0.1).seq for _ in range(5)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_invalid_latency_rejected(self):
        sim = Simulator()
        for bad in (float("nan"), float("inf"), -0.1):
            with pytest.raises(SimulationError):
                sim.future(bad)


def _futures(sim, latencies, ok=None):
    ok = ok or [True] * len(latencies)
    return [sim.future(lat, value=i, ok=flag)
            for i, (lat, flag) in enumerate(zip(latencies, ok))]


class TestCombinators:
    def test_quorum_concurrent_elapsed_is_nth_completion(self):
        sim = Simulator()
        futures = _futures(sim, [0.3, 0.1, 0.2])
        result = quorum_of(2, futures)
        assert result.met
        # settle order: 0.1, 0.2, 0.3 — the quorum is in at 0.2
        assert [f.value for f in result.settled] == [1, 2, 0]
        assert [f.value for f in result.winners] == [1, 2]
        assert result.elapsed == pytest.approx(0.2)
        assert result.max_latency == pytest.approx(0.3)
        # the branch past the settle point is cancelled, not un-issued
        assert futures[0].cancelled
        assert not futures[1].cancelled

    def test_quorum_elapsed_is_below_the_latency_sum(self):
        sim = Simulator()
        futures = _futures(sim, [0.3, 0.1, 0.2])
        result = quorum_of(2, futures)
        assert result.met
        assert result.elapsed < sum(f.latency for f in futures)
        assert not hasattr(result, "sum_latency")  # no serial bill

    def test_the_serial_model_cannot_be_selected(self):
        with pytest.raises(TypeError):
            Simulator(concurrent=False)
        with pytest.raises(TypeError):
            Simulator(seed=1, concurrent=True)

    def test_unmet_quorum_pays_max(self):
        sim = Simulator()
        result = quorum_of(2, _futures(sim, [0.3, 0.1, 0.2],
                                       ok=[False, True, False]))
        assert not result.met
        assert result.elapsed == pytest.approx(0.3)

    def test_zero_quorum_is_free(self):
        sim = Simulator()
        result = quorum_of(0, _futures(sim, [0.3, 0.1]))
        assert result.met
        assert result.elapsed == 0.0

    def test_empty_fanout(self):
        assert quorum_of(0, []).met
        assert not quorum_of(1, []).met
        assert quorum_of(1, []).elapsed == 0.0

    def test_predicate_filters_winners(self):
        sim = Simulator()
        futures = _futures(sim, [0.1, 0.2, 0.3])
        result = quorum_of(1, futures,
                           predicate=lambda f: f.value == 2)
        assert [f.value for f in result.winners] == [2]
        assert result.elapsed == pytest.approx(0.3)

    def test_gather_waits_for_everything(self):
        sim = Simulator()
        # gather counts even failed branches: it models "wait for all"
        result = gather(_futures(sim, [0.3, 0.1], ok=[False, True]))
        assert result.met
        assert result.elapsed == pytest.approx(0.3)

    def test_first_of_is_a_one_quorum(self):
        sim = Simulator()
        result = quorum_of(1, _futures(sim, [0.3, 0.1, 0.2],
                                       ok=[True, False, True]))
        assert [f.value for f in result.winners] == [2]
        assert result.elapsed == pytest.approx(0.2)

    def test_equal_completions_break_on_issue_sequence(self):
        sim = Simulator()
        futures = _futures(sim, [0.2, 0.2, 0.2])
        result = quorum_of(1, futures)
        assert result.winners[0] is futures[0]
        # later same-instant branches are cancelled (seq tie-break)
        assert not futures[0].cancelled
        assert futures[1].cancelled and futures[2].cancelled

    def test_settle_order_deterministic_across_runs(self):
        def run():
            sim = Simulator(seed=7)
            net = SimNetwork(sim, loss_rate=0.05)
            for i in range(8):
                net.register(SimNode(f"n{i}"))
            orders = []
            for j in range(12):
                futures = [net.rpc_issue(f"n{j % 8}", f"n{(j + k) % 8}",
                                         kind="fanout")
                           for k in range(1, 5)]
                result = quorum_of(2, futures)
                orders.append(([f.seq for f in result.settled],
                               [f.seq for f in result.winners],
                               round(result.elapsed, 12), result.met))
            return orders

        assert run() == run()


class TestHedgeOf:
    """The stagger/settle routine the channel and the verified replica
    fetch share."""

    @staticmethod
    def race(sim, branches, hedge_delay=0.05):
        """``branches``: ``(latency, accepted)`` per candidate, or
        ``None`` for a slot that launches nothing."""
        launched = {}

        def issue(candidate, offset):
            if branches[candidate] is None:
                return (None, False)
            latency, accepted = branches[candidate]
            launched[candidate] = (offset, sim.future(latency))
            return (launched[candidate][1], accepted)

        winner, elapsed, hedges = hedge_of(range(len(branches)),
                                           hedge_delay, issue)
        assert hedges == max(0, max(launched, default=0))
        return winner, elapsed, launched

    def test_early_win_stops_launching(self):
        winner, elapsed, launched = self.race(
            Simulator(), [(0.04, True), (0.01, True)])
        assert (winner, elapsed) == (0, 0.04)
        assert list(launched) == [0]  # 0.04 <= 0.05: no hedge ever fires

    def test_earliest_accepted_completion_wins_and_cancels_losers(self):
        winner, elapsed, launched = self.race(
            Simulator(), [(0.30, True), (0.02, True), (0.5, True)])
        # slot 1 launches at 0.05 and completes at 0.07 < 0.10: slot 2
        # never launches, slot 0 is still in flight and is cancelled
        assert winner == 1
        assert elapsed == pytest.approx(0.07)
        assert list(launched) == [0, 1]
        assert launched[0][1].cancelled and not launched[1][1].cancelled

    def test_unaccepted_responses_never_win(self):
        winner, elapsed, launched = self.race(
            Simulator(), [(0.01, False), (0.2, True)])
        assert winner == 1  # the fast-but-rejected branch only forces a hedge
        assert elapsed == pytest.approx(0.25)

    def test_no_accepted_response_waits_out_the_last_completion(self):
        winner, elapsed, launched = self.race(
            Simulator(), [(0.3, False), None, (0.1, False)])
        assert winner is None
        # the empty slot still advanced the stagger (and counts as a
        # hedge): the third candidate launches at 0.10
        assert launched[2][0] == pytest.approx(0.10)
        assert elapsed == pytest.approx(0.3)
        assert not any(f.cancelled for _, f in launched.values())

    def test_issue_returning_none_stops_the_race(self):
        seen = []

        def issue(candidate, offset):
            seen.append(candidate)
            return None

        assert hedge_of("abc", 0.05, issue) == (None, 0.0, 0)
        assert seen == ["a"]

    def test_equal_completions_break_on_issue_sequence(self):
        winner, elapsed, _ = self.race(
            Simulator(), [(0.2, True), (0.2, True)], hedge_delay=0.0)
        assert winner == 0


# Recorded against the pre-kernel blocking ``rpc`` implementation:
# seed=42, loss_rate=0.1, nodes n0..n5 with n3 offline, 24 RPCs of
# kind="golden" with payload_size=64+i, src=n{i%6}, dst=n{(2i+1)%6}
# (bumped to n{(2i+2)%6} when src==dst).  The sync wrapper over
# rpc_issue must keep this stream byte-identical.
GOLDEN_TRACE = [
    (True, 0.126052276459), (False, 0.294598362899), (True, 0.181229094815),
    (True, 0.1381605329), (False, 0.094397221357), (True, 0.139360926347),
    (False, 0.129383204184), (False, 0.071512980003), (True, 0.117151011188),
    (True, 0.132424192293), (False, 0.054015361145), (True, 0.170570345718),
    (False, 0.087609434157), (False, 0.230893456703), (True, 0.097915127794),
    (True, 0.124336818397), (False, 0.282627647696), (True, 0.150827028252),
    (True, 0.101743827235), (False, 0.262448650924), (True, 0.16587680474),
    (True, 0.139998633935), (False, 0.339388939687), (True, 0.096548390713),
]


def _golden_network():
    sim = Simulator(seed=42)
    net = SimNetwork(sim, loss_rate=0.1)
    for i in range(6):
        net.register(SimNode(f"n{i}"))
    net.nodes["n3"].online = False
    return net


def _golden_pairs():
    for i in range(24):
        src = f"n{i % 6}"
        dst = f"n{(i * 2 + 1) % 6}"
        if dst == src:
            dst = f"n{(i * 2 + 2) % 6}"
        yield i, src, dst


class TestGoldenDrawTrace:
    def test_sync_rpc_reproduces_the_blocking_trace(self):
        net = _golden_network()
        trace = []
        for i, src, dst in _golden_pairs():
            ok, rtt = net.rpc(src, dst, kind="golden", payload_size=64 + i)
            trace.append((ok, round(rtt, 12)))
        assert trace == GOLDEN_TRACE
        assert net.stats.messages == 39
        assert net.stats.bytes == 2944
        assert net.stats.timeouts == 10
        assert net.stats.summary()["failures"] == 10

    def test_rpc_issue_draws_identically(self):
        """Issuing futures keeps the stream."""
        sim = Simulator(seed=42)
        net = SimNetwork(sim, loss_rate=0.1)
        for i in range(6):
            net.register(SimNode(f"n{i}"))
        net.nodes["n3"].online = False
        trace = []
        for i, src, dst in _golden_pairs():
            future = net.rpc_issue(src, dst, kind="golden",
                                   payload_size=64 + i)
            ok, rtt = future.value
            assert future.ok == ok
            assert future.latency == rtt
            trace.append((ok, round(rtt, 12)))
        assert trace == GOLDEN_TRACE
        assert net.stats.summary()["failures"] == 10
