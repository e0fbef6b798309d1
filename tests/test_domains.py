"""Tests for multi-domain (hierarchical) control: domain-clipped discovery
and independent per-domain controllers (paper Figs. 2-3)."""

import pytest

from repro.control.discovery import TopologyDiscovery
from repro.control.session import SessionDescriptor
from repro.experiments.domains import build_two_domain_topology
from repro.media.layers import LayerSchedule
from repro.multicast import manager
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network


def setup_net():
    r"""src - core - gw1 - r1 ; core - gw2 - r2."""
    sched = Scheduler()
    net = Network(sched)
    for n in ["src", "core", "gw1", "gw2", "r1", "r2"]:
        net.add_node(n)
    net.add_link("src", "core", bandwidth=1e6, delay=0.1)
    net.add_link("core", "gw1", bandwidth=1e6, delay=0.1)
    net.add_link("core", "gw2", bandwidth=1e6, delay=0.1)
    net.add_link("gw1", "r1", bandwidth=1e6, delay=0.1)
    net.add_link("gw2", "r2", bandwidth=1e6, delay=0.1)
    net.build_routes()
    assert manager.IGMP_REPORT_DELAY == 0.0, "request the no_igmp_delay fixture"
    mcast = MulticastManager(net, leave_latency=2.0)
    schedule = LayerSchedule(n_layers=2)
    groups = tuple(mcast.create_group("src") for _ in range(2))
    desc = SessionDescriptor("S", "src", groups, schedule)
    return sched, net, mcast, desc


@pytest.mark.usefixtures("no_igmp_delay")
class TestDomainDiscovery:
    def test_domain_clips_tree_and_reroots(self):
        sched, net, mcast, desc = setup_net()
        disc = TopologyDiscovery(mcast, domain={"gw1", "r1"})
        mcast.join(desc.groups[0], "r1")
        mcast.join(desc.groups[0], "r2")
        sched.run(until=1.0)
        tree = disc.session_tree(desc, ["r1", "r2"])
        assert tree.root == "gw1"
        assert tree.edges == frozenset({("gw1", "r1")})
        # Only the in-domain receiver is visible.
        assert tree.leaves == ("r1",)

    def test_source_inside_domain_keeps_root(self):
        sched, net, mcast, desc = setup_net()
        disc = TopologyDiscovery(mcast, domain={"src", "core", "gw1", "r1"})
        mcast.join(desc.groups[0], "r1")
        sched.run(until=1.0)
        tree = disc.session_tree(desc, ["r1"])
        assert tree.root == "src"
        assert ("src", "core") in tree.edges

    def test_session_not_reaching_domain_yields_empty_tree(self):
        sched, net, mcast, desc = setup_net()
        disc = TopologyDiscovery(mcast, domain={"gw2", "r2"})
        mcast.join(desc.groups[0], "r1")  # only domain 1 joined
        sched.run(until=1.0)
        tree = disc.session_tree(desc, ["r1"])
        assert tree.edges == frozenset()
        assert tree.leaves == ()


class TestTwoDomainScenario:
    def test_structure(self):
        sc = build_two_domain_topology(receivers_per_domain=2, seed=1)
        assert set(sc.controllers) == {"d1", "d2"}
        assert len(sc.receivers) == 4
        res = sc.run(10.0)
        opt = res.optimal_levels()
        sid = sc.receivers[0].session_id
        assert opt[(sid, "D1-0")] == 4
        assert opt[(sid, "D2-0")] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            build_two_domain_topology(receivers_per_domain=0)

    def test_domains_converge_independently(self):
        sc = build_two_domain_topology(receivers_per_domain=2, seed=2)
        res = sc.run(200.0)
        d1 = [h for h in sc.receivers if h.receiver_id.startswith("D1")]
        d2 = [h for h in sc.receivers if h.receiver_id.startswith("D2")]
        d1_mean = sum(h.trace.time_weighted_mean(60, 200) for h in d1) / len(d1)
        d2_mean = sum(h.trace.time_weighted_mean(60, 200) for h in d2) / len(d2)
        # Each domain tracks its own optimum (4 vs 2).
        assert 3.0 <= d1_mean <= 5.0, d1_mean
        assert 1.2 <= d2_mean <= 3.0, d2_mean

    def test_each_controller_sees_only_its_receivers(self):
        sc = build_two_domain_topology(receivers_per_domain=2, seed=3)
        sc.run(30.0)
        d1_regs = [rid for t in sc.controllers["d1"].receivers.values() for rid in t]
        d2_regs = [rid for t in sc.controllers["d2"].receivers.values() for rid in t]
        assert all(rid.startswith("D1") for rid in d1_regs)
        assert all(rid.startswith("D2") for rid in d2_regs)
        assert d1_regs and d2_regs

    def test_duplicate_domain_name_rejected(self):
        sc = build_two_domain_topology(seed=1)
        with pytest.raises(ValueError):
            sc.attach_controller("core", name="d1")

    def test_unknown_controller_name_rejected_at_run(self):
        sc = build_two_domain_topology(seed=1)
        sid = sc.receivers[0].session_id
        sc.add_node("extra")
        sc.add_link("gw1", "extra", bandwidth=1e6)
        sc.add_receiver(sid, "extra", controller="ghost")
        with pytest.raises(ValueError, match="ghost"):
            sc.run(5.0)
