"""Unit tests for the topology-discovery tool (staleness model)."""

import pytest

from repro.control.discovery import TopologyDiscovery
from repro.control.session import SessionDescriptor
from repro.media.layers import LayerSchedule
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network

pytestmark = pytest.mark.usefixtures("no_igmp_delay")


def setup(n_layers=2):
    sched = Scheduler()
    net = Network(sched)
    for name in ["src", "mid", "r1", "r2"]:
        net.add_node(name)
    net.add_link("src", "mid", bandwidth=1e6, delay=0.1)
    net.add_link("mid", "r1", bandwidth=1e6, delay=0.1)
    net.add_link("mid", "r2", bandwidth=1e6, delay=0.1)
    net.build_routes()
    mcast = MulticastManager(net, leave_latency=0.5)
    schedule = LayerSchedule(n_layers=n_layers, base_rate=32_000)
    groups = tuple(mcast.create_group("src") for _ in range(n_layers))
    desc = SessionDescriptor("S", "src", groups, schedule)
    return sched, net, mcast, desc


def test_negative_staleness_rejected():
    sched, net, mcast, desc = setup()
    with pytest.raises(ValueError):
        TopologyDiscovery(mcast, staleness=-1.0)


def test_staleness_is_read_only():
    """The controller trims report history against a cutoff that must
    never move back, so a tool's staleness cannot change after it is
    made."""
    sched, net, mcast, desc = setup()
    disc = TopologyDiscovery(mcast, staleness=4.0)
    with pytest.raises(AttributeError):
        disc.staleness = 2.0
    assert disc.staleness == 4.0


def test_fresh_discovery_sees_current_tree():
    sched, net, mcast, desc = setup()
    disc = TopologyDiscovery(mcast, staleness=0.0)
    mcast.join(desc.groups[0], "r1")
    sched.run(until=1.0)
    tree = disc.session_tree(desc, ["r1"])
    assert tree.root == "src"
    assert ("src", "mid") in tree.edges
    assert ("mid", "r1") in tree.edges
    assert tree.leaves == ("r1",)


def test_stale_discovery_sees_old_tree():
    sched, net, mcast, desc = setup()
    disc = TopologyDiscovery(mcast, staleness=5.0)
    mcast.join(desc.groups[0], "r1")
    sched.run(until=2.0)
    mcast.join(desc.groups[0], "r2")
    sched.run(until=4.0)  # r2 joined at ~2.2; staleness 5 -> invisible
    tree = disc.session_tree(desc, ["r1", "r2"])
    assert ("mid", "r1") not in tree.edges or True  # r1 joined at ~0.2 also invisible
    # At t=4 with staleness 5 the snapshot is from t<=0: empty tree.
    assert tree.edges == frozenset()
    assert tree.leaves == ()


def test_staleness_window_moves_forward():
    sched, net, mcast, desc = setup()
    disc = TopologyDiscovery(mcast, staleness=2.0)
    mcast.join(desc.groups[0], "r1")
    sched.run(until=1.0)
    assert disc.session_tree(desc, ["r1"]).leaves == ()
    sched.run(until=5.0)
    assert disc.session_tree(desc, ["r1"]).leaves == ("r1",)


def test_receiver_not_in_tree_omitted():
    sched, net, mcast, desc = setup()
    disc = TopologyDiscovery(mcast, staleness=0.0)
    mcast.join(desc.groups[0], "r1")
    sched.run(until=1.0)
    # r2's receiver registered but never joined: not in tree -> omitted.
    tree = disc.session_tree(desc, ["r1", "r2"])
    assert tree.leaves == ("r1",)


def test_query_counter():
    sched, net, mcast, desc = setup()
    disc = TopologyDiscovery(mcast)
    disc.session_tree(desc, [])
    disc.session_tree(desc, [])
    assert disc.queries == 2


def test_explicit_now_parameter():
    sched, net, mcast, desc = setup()
    disc = TopologyDiscovery(mcast, staleness=0.0)
    mcast.join(desc.groups[0], "r1")
    sched.run(until=3.0)
    old = disc.session_tree(desc, ["r1"], now=0.1)
    assert old.leaves == ()


class TestSessionDescriptor:
    def test_group_layer_mismatch_rejected(self):
        schedule = LayerSchedule(n_layers=3)
        with pytest.raises(ValueError):
            SessionDescriptor("S", "src", (1, 2), schedule)

    def test_n_layers(self):
        schedule = LayerSchedule(n_layers=2)
        assert SessionDescriptor("S", "src", (1, 2), schedule).n_layers == 2


class TestDiscoveryFaults:
    def test_timeout_mode_raises(self):
        from repro.control.discovery import DiscoveryUnavailable

        sched, net, mcast, desc = setup()
        disc = TopologyDiscovery(mcast)
        mcast.join(desc.groups[0], "r1")
        sched.run(until=1.0)
        disc.available = False
        with pytest.raises(DiscoveryUnavailable):
            disc.session_tree(desc, ["r1"])
        assert disc.failed_queries == 1
        disc.available = True
        tree = disc.session_tree(desc, ["r1"])
        assert tree.leaves == ("r1",)

    def test_group_without_history_yields_empty_layer(self):
        # A group that never saw a join has no snapshots; discovery must
        # degrade to an empty tree, not raise.
        sched, net, mcast, desc = setup()
        disc = TopologyDiscovery(mcast)
        tree = disc.session_tree(desc, ["r1"])
        assert tree.edges == frozenset()
        assert tree.leaves == ()
