"""The packed ``MemberView`` and its tuple queue against the oracle.

``tests/membership/reference.py`` keeps the member table and the rumor
queue as first written (a ``MemberRecord`` per pair; a mutable
``_Update`` with its own budget, one ``receive`` per rumor, a trim after
every append).  The packed view must leave every view exactly where the
oracle leaves it: records (gap windows bit for bit), indexes, queue and
budgets, counters — rumor by rumor and over a whole faulty run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import Fabric
from repro.faults import FaultPlan, Partition
from repro.membership import (ALIVE, DEAD, PROTOCOL_PERIOD, SUSPECT,
                              SwimMembership)
from repro.membership.swim import _QUEUE_CAP, _Update
from repro.overlay.network import SimNode
from repro.overlay.simulator import FixedLatency

from tests.membership import reference


def _cluster(kind, n, seed=7, loss=0.0, faults=None, start=False):
    fab = Fabric.create(seed=seed, latency=FixedLatency(0.02),
                        loss_rate=loss, faults=faults)
    membership = kind(fab)
    for i in range(n):
        fab.network.register(SimNode(f"n{i}"))
        membership.register(f"n{i}")
    if start:
        membership.start()
    return fab, membership


def _queue(view):
    """``(peer, state, incarnation, heard_at, budget)`` rows, whichever
    representation the view keeps."""
    if isinstance(view, reference.ReferenceView):
        return [(u.peer, u.state, u.incarnation, u.heard_at, u.budget)
                for u in view.queue]
    return [(*update, budget)
            for update, budget in zip(view.queue, view.budgets)]


def _view_state(view):
    """Everything the view holds; the owner and strangers have no record."""
    names = [*view.membership.ranks, "ghost"]
    records = {peer: view.record(peer) for peer in names}
    assert records.pop(view.owner) is None and records.pop("ghost") is None
    return (records, view.suspects, view.dead, view.self_incarnation,
            _queue(view))


def _counters(fab):
    return [(i.name, i.labels, i.value) for i in fab.metrics]


#: n0 owns the view; "ghost" is a peer it never met
PEERS = ("n0", "n1", "n2", "n3", "ghost")
RUMOR = st.tuples(st.sampled_from(PEERS),
                  st.sampled_from((ALIVE, SUSPECT, DEAD)),
                  st.integers(0, 3),
                  # registration is at 0.0, so -1.0 / 0.0 are stale and
                  # repeats are duplicates
                  st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.5, 7.5, 11.0)))
#: one contact: the batch it delivers, then how many piggybacks it takes
STEP = st.tuples(st.lists(RUMOR, max_size=_QUEUE_CAP + 8),
                 st.integers(0, 3))


def _agree(steps):
    """Run ``steps`` on an oracle view and a new one, checking after each
    contact; the new side's counters at the end."""
    fab_old, old_swim = _cluster(reference.ReferenceMembership, 4)
    fab_new, new_swim = _cluster(SwimMembership, 4)
    old, new = old_swim.view_of("n0"), new_swim.view_of("n0")
    for at, (rumors, takes) in enumerate(steps, start=1):
        now = float(at)
        old.merge([reference._Update(*r, budget=3) for r in rumors], now)
        new.merge([_Update(*r) for r in rumors], now)
        for _ in range(takes):
            sent_old = [(u.peer, u.state, u.incarnation, u.heard_at)
                        for u in old.take_piggyback()]
            assert new.take_piggyback() == sent_old
        assert _view_state(new) == _view_state(old)
        assert len(new.queue) <= _QUEUE_CAP
    assert _counters(fab_new) == _counters(fab_old)
    assert new_swim._dead == old_swim._dead
    return {(name, labels): value for name, labels, value in
            _counters(fab_new)}


class TestMergeAgainstTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(STEP, max_size=12))
    def test_batches_leave_the_view_where_receive_did(self, steps):
        _agree(steps)

    def test_every_rule_in_one_batch(self):
        """A refutation, a gossiped suspicion, a confirm and a revival, an
        unknown peer and a batch longer than the queue, in one contact,
        then budgets run down to nothing."""
        rumors = [("n0", SUSPECT, 0, 1.0), ("n1", SUSPECT, 0, 1.0),
                  ("n2", DEAD, 0, 1.0), ("n2", ALIVE, 1, 2.5),
                  ("ghost", DEAD, 0, 1.0)]
        rumors += [("n3", ALIVE, 0, 0.5 + i) for i in range(_QUEUE_CAP + 4)]
        counters = _agree([(rumors, 3)] + [([], 3)] * 12)
        for counter in [("membership.refutations", ()),
                        ("membership.suspicions", (("source", "gossip"),)),
                        ("membership.confirms", (("source", "gossip"),)),
                        ("membership.rejoins", ())]:
            assert counters[counter] == 1


class TestWholeClusterAgainstTheOracle:
    def _run(self, kind):
        names = [f"n{i}" for i in range(40)]
        plan = FaultPlan(seed=3).add(
            Partition(groups=[frozenset(names[:15])], start=120.0,
                      end=220.0))
        fab, membership = _cluster(kind, 40, seed=2015, loss=0.1,
                                   faults=plan, start=True)
        fab.sim.run(until=40.0)
        fab.network.node("n7").go_offline()
        fab.sim.run(until=70.0)
        fab.network.node("n23").go_offline()
        fab.sim.run(until=300 * PROTOCOL_PERIOD + 0.5)
        assert membership._ticks == 300
        return (repr(membership.confirm_log), fab.network.stats.messages,
                {name: _view_state(view)
                 for name, view in membership.views.items()},
                _counters(fab))

    def test_same_messages_confirms_and_queues(self):
        new = self._run(SwimMembership)
        old = self._run(reference.ReferenceMembership)
        assert new[0] == old[0] and new[1] == old[1]
        assert new[2] == old[2]
        assert new[3] == old[3]
        # the run exercised confirms, refutations and the heal
        counters = {(name, labels): value for name, labels, value in new[3]}
        assert counters[("membership.confirms", (("source", "phi"),))] > 0
        assert counters[("membership.rejoins", ())] > 0
        assert counters[("membership.refutations", ())] > 0
