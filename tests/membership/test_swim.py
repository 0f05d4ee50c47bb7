"""Unit tests for the SWIM-style membership protocol."""

import math
from array import array

import pytest

from repro.exceptions import OverlayError, SimulationError
from repro.fabric import Fabric
from repro.membership import (ALIVE, CONFIRM_PHI, DEAD, GOSSIP_BUDGET_FACTOR,
                              INITIAL_INTERVAL, LN10, MIN_INTERVAL,
                              PROTOCOL_PERIOD, SUSPECT, WINDOW,
                              MembershipConfig, SwimMembership)
from repro.membership.phi import STRIDE, PhiTable
from repro.membership.swim import _Update
from repro.overlay.network import SimNode
from repro.overlay.simulator import FixedLatency


def cluster(n=6, seed=7, loss=0.0, faults=None, resilient=False, start=True):
    fab = Fabric.create(seed=seed, latency=FixedLatency(0.02),
                        loss_rate=loss, faults=faults, resilient=resilient)
    membership = SwimMembership(fab)
    names = [f"n{i}" for i in range(n)]
    for name in names:
        fab.network.register(SimNode(name))
        membership.register(name)
    if start:
        membership.start()
    return fab, membership, names


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(protocol_period=0.0),
        dict(k_indirect=-1),
        dict(suspect_phi=0.0),
        dict(suspect_phi=9.0, confirm_phi=8.0),
        dict(piggyback_limit=0),
        dict(window=1),
        dict(initial_interval=0.0),
        dict(min_interval=0.0),
        dict(gossip_budget_factor=0.0),
        dict(reclaim_every=0),
    ])
    def test_invalid_parameters_rejected(self, bad):
        """The config is a switch: every former knob is a module constant
        of ``repro.membership``, and naming one is a ``TypeError``."""
        with pytest.raises(TypeError):
            MembershipConfig(**bad)


class TestRoster:
    def test_duplicate_registration_rejected(self):
        _, membership, _ = cluster(start=False)
        with pytest.raises(OverlayError):
            membership.register("n0")

    def test_start_needs_two_members(self):
        fab = Fabric.create(seed=1)
        membership = SwimMembership(fab)
        fab.network.register(SimNode("solo"))
        membership.register("solo")
        with pytest.raises(SimulationError):
            membership.start()

    def test_one_membership_per_fabric(self):
        fab, _, _ = cluster()
        with pytest.raises(SimulationError):
            SwimMembership(fab)

    def test_views_are_cross_registered(self):
        _, membership, names = cluster(n=4, start=False)
        for name in names:
            view = membership.view_of(name)
            assert [p for p in names if view.record(p)] \
                == [p for p in names if p != name]
            assert view.record("stranger") is None
        assert membership.view_of("stranger") is None


class TestDetection:
    def test_crash_is_confirmed_dead_with_no_false_positives(self):
        fab, membership, names = cluster(n=6)
        fab.sim.run(until=60.0)
        fab.network.node("n3").go_offline()
        fab.sim.run(until=400.0)
        assert membership.confirmed_dead("n3")
        assert [n for n in names if not membership.confirmed_dead(n)] == \
            [n for n in names if n != "n3"]
        false, total = membership.false_positive_stats()
        assert false == 0 and total >= 1
        assert all(e.peer == "n3" for e in membership.confirm_log)

    def test_confirm_respects_the_adaptive_bound(self):
        fab, membership, _ = cluster(n=6)
        fab.sim.run(until=60.0)
        fab.network.node("n3").go_offline()
        fab.sim.run(until=400.0)
        for event in membership.confirm_log:
            assert event.silence >= event.bound
            assert event.phi >= CONFIRM_PHI

    def test_confirmation_gossips_cluster_wide(self):
        fab, membership, names = cluster(n=6)
        fab.sim.run(until=60.0)
        fab.network.node("n3").go_offline()
        fab.sim.run(until=500.0)
        buried_in = [n for n in names if n != "n3"
                     and membership.view_of(n).is_dead("n3")]
        assert len(buried_in) == 5

    def test_fair_weather_run_stays_silent(self):
        fab, membership, _ = cluster(n=8)
        fab.sim.run(until=300.0)
        assert membership.confirm_log == []
        assert membership._dead == set()
        assert fab.metrics.get_counter_value(
            "membership.confirms", source="phi") == 0

    def test_on_confirm_fires_once_per_death(self):
        fab, membership, _ = cluster(n=6)
        deaths = []
        membership.on_confirm(lambda peer, now: deaths.append(peer))
        fab.sim.run(until=60.0)
        fab.network.node("n3").go_offline()
        fab.sim.run(until=500.0)
        assert deaths == ["n3"]

    def test_rejoin_revives_and_clears_admin_death(self):
        fab, membership, _ = cluster(n=6)
        fab.sim.run(until=60.0)
        fab.network.node("n3").go_offline()
        fab.sim.run(until=400.0)
        assert membership.confirmed_dead("n3")
        fab.network.node("n3").go_online()
        fab.sim.run(until=800.0)
        assert not membership.confirmed_dead("n3")
        assert fab.metrics.get_counter_value("membership.rejoins") > 0
        # and the returnee's own absence produced no fresh confirmations
        false, _ = membership.false_positive_stats()
        assert false == 0


class TestMergeRules:
    """SWIM's update-override rules, applied straight to one view."""

    def setup_method(self):
        _, self.membership, _ = cluster(n=3, start=False)
        self.view = self.membership.view_of("n0")

    @property
    def record(self):
        return self.view.record("n1")

    def _recv(self, state, incarnation, heard_at=1.0):
        self.view.merge([_Update("n1", state, incarnation, heard_at)],
                        now=2.0)

    def test_suspect_beats_alive_at_equal_incarnation(self):
        self._recv(SUSPECT, 0)
        assert self.record.state == SUSPECT

    def test_alive_needs_higher_incarnation_to_refute_suspect(self):
        self._recv(SUSPECT, 0)
        self._recv(ALIVE, 0)
        assert self.record.state == SUSPECT  # same incarnation: no refute
        self._recv(ALIVE, 1)
        assert self.record.state == ALIVE
        assert self.record.incarnation == 1

    def test_dead_is_final_at_any_equal_incarnation(self):
        self._recv(DEAD, 0)
        self._recv(ALIVE, 0)
        self._recv(SUSPECT, 5)
        assert self.record.state == DEAD

    def test_higher_incarnation_alive_revives_the_dead(self):
        self._recv(DEAD, 0)
        assert self.membership.confirmed_dead("n1")
        self._recv(ALIVE, 1)
        assert self.record.state == ALIVE
        assert not self.membership.confirmed_dead("n1")

    def test_alive_news_counts_as_phi_evidence(self):
        before = self.record.last_evidence
        self._recv(ALIVE, 0, heard_at=before + 7.5)
        assert self.record.last_evidence == before + 7.5

    def test_owner_refutes_rumors_about_itself(self):
        rumor = _Update("n0", SUSPECT, 0, 1.0)
        self.view.merge([rumor], now=2.0)
        assert self.view.self_incarnation == 1
        refute = [u for u in self.view.queue if u.peer == "n0"]
        assert refute and refute[-1].state == ALIVE
        assert refute[-1].incarnation == 1

    def test_unknown_peers_are_ignored(self):
        self.view.merge([_Update("ghost", DEAD, 0, 1.0)], now=2.0)
        assert self.view.record("ghost") is None

    def test_direct_evidence_revives_without_incarnation_bump(self):
        self._recv(SUSPECT, 0)
        self.view.direct_evidence("n1", 0, now=3.0)
        assert self.record.state == ALIVE
        assert self.record.incarnation == 0


class TestHealthOrdering:
    def test_dead_sort_last_and_suspects_in_between(self):
        _, membership, _ = cluster(n=4, start=False)
        view = membership.view_of("n0")
        view.set_state("n1", DEAD)
        view.set_state("n2", SUSPECT)
        ordered = membership.order_by_health("n0", ["n1", "n2", "n3"])
        assert ordered == ["n3", "n2", "n1"]

    def test_unknown_observer_passthrough(self):
        _, membership, _ = cluster(n=3, start=False)
        assert membership.order_by_health("stranger", ["n2", "n0"]) == \
            ["n2", "n0"]

    def test_health_scores_are_bounded(self):
        fab, membership, names = cluster(n=4)
        fab.sim.run(until=50.0)
        view = membership.view_of("n0")
        now = fab.sim.now
        for peer in names[1:]:
            assert 0.0 <= view.health(peer, now) <= 1.0


class TestReclaim:
    """Graveyard probing ("gossip to the dead") after a partition heals."""

    def _partitioned_cluster(self):
        from repro.faults import FaultPlan, Partition
        plan = FaultPlan(seed=3).add(
            Partition(groups=[frozenset({"n0", "n1", "n2", "n3"})],
                      start=30.0, end=230.0))
        return cluster(n=8, faults=plan)

    def test_healed_partition_is_fully_reclaimed(self):
        fab, membership, names = self._partitioned_cluster()
        fab.sim.run(until=220.0)
        # mutual burial across the cut: nobody probes the "dead" side,
        # so without reclaim the views could never converge again
        assert membership._dead
        fab.sim.run(until=400.0)
        assert membership._dead == set()
        for name in names:
            assert membership.view_of(name).dead_peers() == []
        assert fab.metrics.get_counter_value(
            "membership.reclaim_pings") > 0

    def test_reclaimed_peer_outbids_its_burial(self):
        """Direct-contact revival must raise the peer's incarnation past
        the buried record, or DEAD stays final in every other view."""
        fab, membership, _ = self._partitioned_cluster()
        fab.sim.run(until=220.0)
        buried = {peer: max(membership.view_of(o).record(peer).incarnation
                            for o in membership.views if o != peer)
                  for peer in membership._dead}
        fab.sim.run(until=400.0)
        for peer, incarnation in buried.items():
            assert membership.view_of(peer).self_incarnation > incarnation


class TestDeterminism:
    def _trace(self, seed):
        fab, membership, _ = cluster(n=8, seed=seed, loss=0.1)
        fab.sim.run(until=60.0)
        fab.network.node("n2").go_offline()
        fab.network.node("n5").go_offline()
        fab.sim.run(until=500.0)
        return (repr(membership.confirm_log), sorted(membership._dead),
                fab.network.stats.messages,
                fab.metrics.get_counter_value("membership.pings"))

    def test_same_seed_same_history(self):
        assert self._trace(11) == self._trace(11)

    def test_different_seed_different_history(self):
        assert self._trace(11) != self._trace(12)


class TestIndexes:
    """The per-view suspect / dead indexes against a scan of the table."""

    def _assert_indexes_true(self, membership):
        seen = {SUSPECT: 0, DEAD: 0}
        for view in membership.views.values():
            records = [(p, view.record(p)) for p in membership.ranks
                       if p != view.owner]
            for state, index in ((SUSPECT, view.suspects), (DEAD, view.dead)):
                scanned = [p for p, r in records if r.state == state]
                assert index == set(scanned)
                seen[state] += len(scanned)
            assert view.dead_peers() == [p for p, r in records
                                         if r.state == DEAD]
        return seen

    def test_indexes_equal_a_scan_through_churn_partition_and_heal(self):
        from repro.faults import FaultPlan, Partition
        names = [f"n{i}" for i in range(12)]
        plan = FaultPlan(seed=3).add(
            Partition(groups=[frozenset(names[:5])], start=150.0, end=330.0))
        fab, membership, _ = cluster(n=12, seed=2015, loss=0.1, faults=plan)
        churn = {60.0: ("n5", False), 90.0: ("n9", False),
                 200.0: ("n5", True), 260.0: ("n7", False),
                 380.0: ("n9", True)}
        peak = {SUSPECT: 0, DEAD: 0}
        at = 0.0
        while at < 600.0:
            at += 10.0
            fab.sim.run(until=at)
            if at in churn:
                name, up = churn[at]
                node = fab.network.node(name)
                node.go_online() if up else node.go_offline()
            seen = self._assert_indexes_true(membership)
            peak = {state: max(peak[state], seen[state]) for state in peak}
        # the scenario did exercise both indexes, and the heal emptied them
        assert peak[SUSPECT] > 0 and peak[DEAD] > 5
        assert fab.metrics.get_counter_value("membership.rejoins") > 0

    def test_simultaneous_confirms_come_in_registration_order(self):
        _, membership, names = cluster(n=9, start=False)
        view = membership.view_of("n0")
        for peer in reversed(names[1:]):        # n8 first, n1 last
            membership._suspect("n0", peer)
        membership._sweep_confirms(view, 10_000.0)
        assert [e.peer for e in membership.confirm_log] == names[1:]
        assert [u.peer for u in view.queue if u.state == DEAD] == names[1:]
        assert view.dead_peers() == names[1:] and view.suspects == set()

    def test_a_sweep_reads_the_window_only_of_a_suspect_that_may_cross(
            self, monkeypatch):
        """A suspect silent for less than the least bound its window
        permits (the prior's under three gaps, else the floored mean's)
        is skipped without a phi read."""
        _, membership, names = cluster(n=5, start=False)
        view = membership.view_of("n0")
        for peer in names[1:]:
            membership._suspect("n0", peer)
        for at in (0.1, 0.2, 0.3):              # n1's gaps, under the floor
            view.evidence(membership.ranks["n1"], at)
        reads = []
        mean_gap = PhiTable.mean_gap
        monkeypatch.setattr(PhiTable, "mean_gap", lambda table, rank: (
            reads.append(membership._members[rank]) or mean_gap(table, rank)))
        floor = CONFIRM_PHI * MIN_INTERVAL * LN10
        prior = CONFIRM_PHI * INITIAL_INTERVAL * LN10
        membership._sweep_confirms(view, 0.3 + 0.99 * floor)
        assert reads == [] and view.suspects == set(names[1:])
        membership._sweep_confirms(view, 0.3 + 1.01 * floor)
        assert set(reads) == {"n1"} and view.dead == {"n1"}
        del reads[:]
        membership._sweep_confirms(view, 0.99 * prior)
        assert reads == [] and view.suspects == set(names[2:])
        membership._sweep_confirms(view, 1.01 * prior)
        assert set(reads) == set(names[2:])
        assert view.dead == set(names[1:])

    @pytest.mark.parametrize("heard_at", [10_000.0, 0.5],
                             ids=["fresh-contact", "stale-relayed-ack"])
    def test_contact_from_a_confirm_callback_clears_a_later_suspect(
            self, heard_at):
        """``on_confirm`` callbacks run in the middle of a sweep (repair
        -> RPCs -> ``observe_contact``): a suspect they clear is neither
        tripped over nor confirmed, whatever its silence clock says."""
        _, membership, _ = cluster(n=5, start=False)
        view = membership.view_of("n0")
        for peer in ("n3", "n1", "n2"):
            membership._suspect("n0", peer)
        membership.on_confirm(
            lambda peer, now: view.direct_evidence("n3", 0, heard_at))
        membership._sweep_confirms(view, 10_000.0)
        assert [e.peer for e in membership.confirm_log] == ["n1", "n2"]
        assert view.record("n3").state == ALIVE
        assert view.suspects == set() and view.dead == {"n1", "n2"}
        assert not membership.confirmed_dead("n3")

    def test_rumor_budget_tracks_the_roster(self):
        fab = Fabric.create(seed=1)
        membership = SwimMembership(fab)

        def formula(members):
            return max(1, math.ceil(
                GOSSIP_BUDGET_FACTOR * math.log2(max(2, members) + 1)))

        for i in range(64):
            fab.network.register(SimNode(f"n{i}"))
            view = membership.register(f"n{i}")
            if i + 1 in (2, 3, 64):
                view.enqueue("n0", ALIVE, 0, 0.0)
                assert view.budgets[-1] \
                    == formula(i + 1) \
                    == membership.gossip_budget()
        first = membership.view_of("n0")     # an old view sees the new roster
        first.enqueue("n1", ALIVE, 0, 0.0)
        assert first.budgets[-1] == formula(64) == 19


def _bytes_per_pair(n, periods):
    """docs/membership.md "Cost": the traced bytes a fabric's membership
    holds per (observer, peer) pair once ``n`` members registered and
    after ``periods`` protocol periods, and the membership."""
    import tracemalloc
    fab = Fabric.create(seed=7, latency=FixedLatency(0.02))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        membership = SwimMembership(fab)
        for i in range(n):
            fab.network.register(SimNode(f"n{i}"))
            membership.register(f"n{i}")
        registered = tracemalloc.get_traced_memory()[0] - base
        membership.start()
        fab.sim.run(until=periods * PROTOCOL_PERIOD + 0.5)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert membership._ticks == periods
    pairs = n * (n - 1)
    return registered / pairs, grown / pairs, membership


class TestMemoryRatchet:
    """PAPER.md's "thousands of in-process peers" holds only while a peer
    costs bytes per view, not kilobytes: the n² table was 1 056 B a pair
    on ``deque`` windows, and 182 / 242 / 342 B at these three points
    with one ``MemberRecord`` object per pair.  A packed pair is 143 B;
    the rest is the protocol's own state (rumors, queues, probe
    rotations), which weighs more per pair the smaller the cluster."""

    def test_a_pair_costs_at_most_160_bytes_registered_170_running(self):
        registered, running, _ = _bytes_per_pair(200, 60)
        assert registered <= 160
        assert running <= 170

    def test_a_pair_costs_at_most_190_bytes_with_every_window_full(self):
        _, full, membership = _bytes_per_pair(100, 240)
        assert full <= 190
        assert {len(view.record(peer).gaps)
                for view in membership.views.values()
                for peer in membership.ranks if peer != view.owner} \
            == {WINDOW}

    def test_a_pair_is_a_slot_not_an_object(self):
        """A view *is* its peers' phi estimators, packed by rank: a few
        arrays per view, no object per (observer, peer) pair."""
        _, membership, _ = cluster(n=3, start=False)
        view = membership.view_of("n0")
        assert isinstance(view, PhiTable)
        assert view.windows.typecode == "d"
        assert len(view.windows) >= 3 * STRIDE
        assert [len(column) for column in (view.counts, view.heads,
                                           view.states, view.incarnations)] \
            == [3, 3, 3, 3]
        assert view.record("n1") == (ALIVE, 0, 0.0, array("d"))

    def test_a_regossiped_rumor_is_the_senders_object(self):
        """News is re-queued as the tuple that arrived, not rebuilt."""
        _, membership, _ = cluster(n=3, start=False)
        sender, receiver = membership.view_of("n0"), membership.view_of("n1")
        sender.enqueue("n2", SUSPECT, 0, 0.0)
        batch = sender.take_piggyback()
        receiver.merge(batch, now=1.0)
        assert receiver.queue == batch
        assert receiver.queue[-1] is batch[-1]
        assert receiver.budgets == [membership.rumor_budget]
