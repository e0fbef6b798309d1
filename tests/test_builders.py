"""Unit tests for the shortest-path tree builder."""

from repro.multicast.builders import SPTBuilder
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network


def _network(nodes, links):
    """Build a routed Network from ``nodes`` and ``(a, b, delay)`` links."""
    sched = Scheduler()
    net = Network(sched)
    for name in nodes:
        net.add_node(name)
    for a, b, delay in links:
        net.add_link(a, b, bandwidth=1e6, delay=delay)
    net.build_routes()
    return sched, net


def diamond_network():
    r"""Redundant diamond: every single-link failure leaves it connected.

        src - core - a - r1
                \    |(cross, slow)
                 b - r2
    """
    return _network(
        ["src", "core", "a", "b", "r1", "r2"],
        [
            ("src", "core", 0.1),
            ("core", "a", 0.1),
            ("core", "b", 0.1),
            ("a", "b", 0.5),
            ("a", "r1", 0.1),
            ("b", "r2", 0.1),
        ],
    )


def _spt_union(net, source, members):
    edges = set()
    for m in members:
        path = net.shortest_path_or_none(source, m)
        for u, v in zip(path, path[1:]):
            edges.add((u, v))
    return edges


# ----------------------------------------------------------------------
# SPT builder
# ----------------------------------------------------------------------
def test_spt_matches_shortest_path_union():
    _sched, net = diamond_network()
    edges = SPTBuilder().build("src", ["r1", "r2"], net)
    assert edges == _spt_union(net, "src", ["r1", "r2"])
    assert edges == {
        ("src", "core"), ("core", "a"), ("core", "b"),
        ("a", "r1"), ("b", "r2"),
    }


def test_spt_is_manager_default_and_identical_to_inline_tree():
    sched, net = diamond_network()
    m = MulticastManager(net, igmp_report_delay=0.0)
    assert isinstance(m.builder, SPTBuilder)
    g = m.create_group("src")
    m.join(g, "r1")
    m.join(g, "r2")
    sched.run(until=2.0)
    assert m.tree_edges(g) == frozenset(_spt_union(net, "src", ["r1", "r2"]))


def test_spt_skips_unreachable_members():
    _sched, net = _network(["src", "a", "island"], [("src", "a", 0.1)])
    assert SPTBuilder().build("src", ["a", "island"], net) == {("src", "a")}
