"""Unit tests for the phi-accrual suspicion estimator.

A :class:`PhiTable` packs one observer's estimators by rank; ``Slot``
reads one rank of a three-peer table like the single-pair estimator it
replaced, so each test drives one peer's window in a packed array.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership import (INITIAL_INTERVAL, LN10, MIN_INTERVAL, WINDOW,
                              PhiTable)


class Slot:
    """The middle peer of a three-peer table."""

    RANK = 1

    def __init__(self, now):
        self.table = PhiTable(3, now)

    def evidence(self, at):
        return self.table.evidence(self.RANK, at)

    def restart(self, now):
        self.table.restart(now)

    @property
    def last_evidence(self):
        return self.table.last_evidence(self.RANK)

    @property
    def _gaps(self):
        return self.table.gaps(self.RANK)

    @property
    def mean_gap(self):
        return self.table.mean_gap(self.RANK)

    def phi(self, now):
        return self.table.phi(self.RANK, now)

    def silence_bound(self, threshold):
        return self.table.silence_bound(self.RANK, threshold)

    def may_reach(self, now, threshold):
        return self.table.may_reach(self.RANK, now, threshold)


def make(now=0.0):
    return Slot(now)


class TestMeanGap:
    def test_initial_interval_until_three_samples(self):
        est = make()
        assert est.mean_gap == INITIAL_INTERVAL
        est.evidence(1.0)
        est.evidence(2.0)
        assert est.mean_gap == INITIAL_INTERVAL  # still the prior
        est.evidence(3.0)
        assert est.mean_gap == pytest.approx(1.0)

    def test_mean_over_sliding_window(self):
        est = make()
        for t in range(1, WINDOW + 1):
            est.evidence(float(t))
        assert est.mean_gap == pytest.approx(1.0)
        est.evidence(WINDOW + 10.0)  # a 10s gap slides in, a 1s gap out
        assert est.mean_gap == pytest.approx((WINDOW - 1 + 10) / WINDOW)

    def test_min_interval_floors_the_estimate(self):
        est = make()
        for t in (0.01, 0.02, 0.03, 0.04):
            est.evidence(t)
        assert est.mean_gap == MIN_INTERVAL

    def test_initial_interval_is_floored_too(self):
        # mean_gap returns the prior unfloored: it must sit above the floor
        assert make().mean_gap == INITIAL_INTERVAL >= MIN_INTERVAL


class TestEvidence:
    def test_stale_timestamps_are_ignored(self):
        est = make()
        assert est.evidence(2.0)
        assert not est.evidence(1.0)  # older piggybacked news
        assert not est.evidence(2.0)  # duplicate
        assert est.last_evidence == 2.0
        assert list(est._gaps) == pytest.approx([2.0])

    def test_restart_resets_clock_without_a_gap(self):
        est = make()
        est.evidence(1.0)
        est.restart(100.0)
        assert est.last_evidence == 100.0
        assert list(est._gaps) == pytest.approx([1.0])  # no 99s gap recorded
        assert est.phi(100.0) == 0.0


class TestPhi:
    def test_zero_at_or_before_evidence(self):
        est = make()
        est.evidence(5.0)
        assert est.phi(5.0) == 0.0
        assert est.phi(4.0) == 0.0

    def test_exponential_model_formula(self):
        est = make()
        for t in (1.0, 2.0, 3.0, 4.0):
            est.evidence(t)
        assert est.phi(4.0 + 2.0) == pytest.approx(2.0 / (1.0 * LN10))

    def test_silence_bound_inverts_phi(self):
        est = make()
        for t in (1.0, 2.5, 3.0, 4.0):
            est.evidence(t)
        for threshold in (1.0, 3.0, 8.0):
            bound = est.silence_bound(threshold)
            assert est.phi(est.last_evidence + bound) == \
                pytest.approx(threshold)

    def test_slow_pair_gets_longer_bound(self):
        fast, slow = make(), make()
        for i in range(1, 6):
            fast.evidence(float(i))
            slow.evidence(float(10 * i))
        assert slow.silence_bound(8.0) > fast.silence_bound(8.0)


class DequeEstimator:
    """The estimator as first written, on ``deque(maxlen=WINDOW)`` — kept
    here as the reference the compact window must match bit for bit."""

    def __init__(self, now):
        self.last_evidence = now
        self._gaps = deque(maxlen=WINDOW)

    def evidence(self, at):
        if at <= self.last_evidence:
            return False
        self._gaps.append(at - self.last_evidence)
        self.last_evidence = at
        return True

    def restart(self, now):
        self.last_evidence = now

    @property
    def mean_gap(self):
        if len(self._gaps) < 3:
            return max(INITIAL_INTERVAL, MIN_INTERVAL)
        return max(sum(self._gaps) / len(self._gaps), MIN_INTERVAL)

    def phi(self, now):
        elapsed = now - self.last_evidence
        if elapsed <= 0:
            return 0.0
        return elapsed / (self.mean_gap * LN10)

    def silence_bound(self, threshold):
        return threshold * self.mean_gap * LN10


@st.composite
def _histories(draw):
    """A history that overfills the window: mostly advancing timestamps,
    with stale (negative step), duplicate (zero step) and observer-restart
    events mixed in, some gaps under the floor."""
    step = st.one_of(
        st.floats(min_value=1e-3, max_value=50.0),
        st.sampled_from([0.0, -1.0, 0.1, 1.0 / 3.0]))
    events = draw(st.lists(
        st.tuples(st.sampled_from(["evidence", "evidence", "evidence",
                                   "restart"]), step),
        min_size=5, max_size=WINDOW + 30))
    # ... and always WINDOW + 5 that do advance the clock
    tail = draw(st.lists(st.floats(min_value=1e-3, max_value=50.0),
                         min_size=WINDOW + 5, max_size=WINDOW + 5))
    return events + [("evidence", gap) for gap in tail]


class TestCompactWindowMatchesTheDeque:
    @settings(max_examples=200, deadline=None)
    @given(_histories(), st.floats(min_value=0.0, max_value=30.0))
    def test_bit_equal_at_every_step(self, history, lookahead):
        est = Slot(10.0)
        ref = DequeEstimator(10.0)
        at = 10.0
        for kind, step in history:
            if kind == "evidence":
                # a step <= 0 lands at or before the newest evidence
                assert est.evidence(est.last_evidence + step) \
                    == ref.evidence(ref.last_evidence + step)
            else:
                at = max(at, est.last_evidence) + abs(step)
                est.restart(at)
                ref.restart(at)
            now = est.last_evidence + lookahead
            assert est.last_evidence == ref.last_evidence
            assert est.mean_gap == ref.mean_gap          # ==, not approx
            assert est.phi(now) == ref.phi(now)
            assert est.silence_bound(8.0) == ref.silence_bound(8.0)
            assert list(est._gaps) == list(ref._gaps)
        assert len(est._gaps) == WINDOW      # the history did overfill it
        # the neighbours' slots saw no write but the restarts'
        assert [est.table.counts[r] for r in (0, 2)] == [0, 0]
        assert len(est.table.gaps(0)) == len(est.table.gaps(2)) == 0


class TestMayReach:
    """``may_reach`` lets a sweep skip a suspect without reading its
    window: it must never skip one whose phi reaches the threshold."""

    @settings(max_examples=200, deadline=None)
    @given(_histories(), st.floats(min_value=0.0, max_value=400.0),
           st.sampled_from([3.0, 8.0]))
    def test_a_skipped_silence_is_below_the_threshold(self, history, silence,
                                                      threshold):
        est = Slot(10.0)
        at = 10.0
        for kind, step in history:
            if kind == "evidence":
                est.evidence(est.last_evidence + step)
            else:
                at = max(at, est.last_evidence) + abs(step)
                est.restart(at)
            now = est.last_evidence + silence
            if not est.may_reach(now, threshold):
                assert est.phi(now) < threshold
            bound = est.last_evidence + est.silence_bound(threshold)
            assert est.may_reach(bound, threshold)

    def test_the_least_bound_is_the_prior_then_the_floor(self):
        est = make()
        prior = 8.0 * INITIAL_INTERVAL * LN10
        floor = 8.0 * MIN_INTERVAL * LN10
        assert not est.may_reach(prior * 0.999, 8.0)
        assert est.may_reach(prior, 8.0)
        for t in (0.1, 0.2, 0.3):           # gaps under the floor
            est.evidence(t)
        assert not est.may_reach(0.3 + floor * 0.999, 8.0)
        assert est.may_reach(0.3 + floor, 8.0)
        assert est.phi(0.3 + floor) == pytest.approx(8.0)
