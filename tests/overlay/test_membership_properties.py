"""Property tests for the failure detector (satellite of the E15 work).

Three properties the benchmark tables lean on, checked directly:

* a fault-free run never confirms anybody dead (zero false positives);
* under injected loss bursts, every phi-confirmation of a genuinely
  crashed peer happens inside the adaptive bound plus the protocol's
  scheduling slack (suspicion starts at most one probe rotation after
  the crash, confirms sweep once per period);
* the whole history is deterministic: same seed, byte-identical log.
"""

import pytest

from repro.fabric import Fabric
from repro.faults import FaultPlan, LossBurst
from repro.membership import CONFIRM_PHI, PROTOCOL_PERIOD, SwimMembership
from repro.overlay.network import SimNode
from repro.overlay.simulator import FixedLatency

N = 8


def run_cluster(seed=2015, loss_burst=False, crash_at=None, until=600.0,
                n=N):
    plan = None
    if loss_burst:
        plan = FaultPlan(seed=seed, horizon=until).add(
            LossBurst(rate=0.3, mean_burst=15.0, mean_gap=45.0))
    fab = Fabric.create(seed=seed, latency=FixedLatency(0.02), faults=plan)
    membership = SwimMembership(fab)
    names = [f"m{i}" for i in range(n)]
    for name in names:
        fab.network.register(SimNode(name))
        membership.register(name)
    membership.start()
    if crash_at is not None:
        crashed, at = crash_at
        fab.sim.run(until=at)
        fab.network.node(crashed).go_offline()
    fab.sim.run(until=until)
    return fab, membership


class TestZeroFaultRuns:
    def test_no_false_positives_without_faults(self):
        _, membership = run_cluster()
        false, total = membership.false_positive_stats()
        assert (false, total) == (0, 0)
        assert membership.confirm_log == []
        assert not membership._dead

    def test_no_false_positives_under_loss_bursts_alone(self):
        """Loss delays evidence but the adaptive bound stretches with it."""
        _, membership = run_cluster(loss_burst=True)
        false, _ = membership.false_positive_stats()
        assert false == 0
        assert not membership._dead


class TestConfirmLatencyBound:
    def test_confirms_fall_inside_the_phi_bound_window(self):
        """Silence at confirm time sits in [bound, bound + slack).

        phi crosses the threshold exactly at ``bound`` seconds of
        silence; the overshoot is bounded by the scheduling slack — up
        to ``n - 1`` periods for the probe rotation to hit the dead peer
        plus one period of confirm-sweep granularity.
        """
        fab, membership = run_cluster(loss_burst=True,
                                      crash_at=("m4", 120.0))
        assert membership.confirmed_dead("m4")
        phi_confirms = [e for e in membership.confirm_log
                        if e.peer == "m4"]
        assert phi_confirms, "the crash must be phi-confirmed"
        slack = (N + 1) * PROTOCOL_PERIOD
        for event in phi_confirms:
            assert event.silence >= event.bound
            assert event.silence < event.bound + slack
        false, _ = membership.false_positive_stats()
        assert false == 0

    def test_detection_happens_in_bounded_wall_time(self):
        _, membership = run_cluster(loss_burst=True,
                                    crash_at=("m4", 120.0), until=600.0)
        first = min(e.at for e in membership.confirm_log
                    if e.peer == "m4")
        worst_bound = max(
            membership.view_of(m).silence_bound(membership.ranks["m4"],
                                                CONFIRM_PHI)
            for m in membership.views if m != "m4")
        slack = (N + 1) * PROTOCOL_PERIOD
        assert first - 120.0 <= worst_bound + slack


class TestDeterminism:
    def _history(self):
        fab, membership = run_cluster(loss_burst=True,
                                      crash_at=("m4", 120.0))
        return (repr(membership.confirm_log),
                sorted(membership._dead),
                fab.network.stats.messages,
                fab.network.stats.timeouts)

    def test_two_runs_are_byte_identical(self):
        assert self._history() == self._history()
