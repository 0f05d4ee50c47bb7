"""DosnConfig(membership=...) wiring: detector attached everywhere."""

import pytest

from repro.dosn.api import DosnConfig, DosnNetwork
from repro.exceptions import OverlayError
from repro.membership import MembershipConfig
from repro.storage2 import ReplicationConfig


def build(n=8, **overrides):
    config = DosnConfig(
        architecture="dht", seed=7, resilient=True,
        replication=ReplicationConfig(n=3, r=2, w=2,
                                      repair_interval=300.0),
        membership=MembershipConfig(), **overrides)
    net = DosnNetwork(config=config)
    for i in range(n):
        net.add_user(f"u{i}")
    for i in range(n - 1):
        net.befriend(f"u{i}", f"u{i+1}")
    return net


class TestConfigSurface:
    def test_membership_requires_dht(self):
        for arch in ("central", "federation", "local"):
            with pytest.raises(OverlayError):
                DosnConfig(architecture=arch,
                           membership=MembershipConfig())

    def test_default_config_has_no_membership(self):
        net = DosnNetwork(config=DosnConfig(architecture="dht", seed=1))
        assert net.membership is None
        assert net.fabric.membership is None


class TestWiring:
    def test_everyone_discovers_the_same_service(self):
        net = build()
        assert net.membership is not None
        assert net.fabric.membership is net.membership
        assert net.fabric.channel.membership is net.membership
        assert net.repair_daemon.membership is net.membership

    def test_users_are_registered_as_members(self):
        net = build(n=5)
        assert sorted(net.membership.views) == [f"u{i}" for i in range(5)]

    def test_first_operation_starts_the_detector(self):
        net = build()
        assert not net.membership._started
        net.post("u0", "hello")
        assert net.membership._started

    def test_detector_runs_alongside_the_social_workload(self):
        net = build()
        cid = net.post("u0", "hello")
        net.sim.run(until=60.0)
        net.network.nodes["u5"].go_offline()
        net.sim.run(until=net.sim.now + 400.0)
        assert net.membership.confirmed_dead("u5")
        false, _ = net.membership.false_positive_stats()
        assert false == 0
        assert net.read("u1", "u0", cid) is not None

    def test_membership_works_with_plain_int_replication(self):
        config = DosnConfig(architecture="dht", seed=7, resilient=True,
                            replication=2,
                            membership=MembershipConfig())
        net = DosnNetwork(config=config)
        for i in range(6):
            net.add_user(f"u{i}")
        net.befriend("u0", "u1")
        cid = net.post("u0", "hi")
        assert net.read("u1", "u0", cid) is not None
        assert net.membership._started
