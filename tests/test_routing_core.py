"""Differential oracle and contract tests for ``Network``'s routing core.

``Network`` searches its own insertion-ordered adjacency with its own
Dijkstra; every tree and unicast next hop in the repo follows its
choice among equal-delay paths, read from one shortest-path map per source.
The oracle here is what it replaced: networkx searches on a ``DiGraph`` that
:class:`Shadow` maintains the way ``Network`` maintained its graph then
(``add_edge`` on add and on restore, ``remove_edge`` on failure — so a
restored edge moves to the back of its node's successors), plus the
all-pairs next-hop tables ``build_routes`` once filled, verbatim.

One generated script — links with tie-rich delays, one- and two-way, some
added mid-script; links taken down and brought up through the public
mutator — drives both, and after every step they must agree on the
successor order of every node, on ``(distances, paths)`` from every source
*including dict order*, and on the next hop of every node towards every
destination, misses included — a stub's answer read from its neighbour's
map.
"""

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import Scenario
from repro.simnet.engine import Scheduler
from repro.simnet.packet import Packet
from repro.simnet.topology import Network

DELAYS = [0.05, 0.1, 0.2, 0.2, 0.2, 0.3]  # ties are the norm


class Shadow:
    """The routing graph as ``Network`` kept it while it was a ``DiGraph``."""

    def __init__(self):
        self.graph = nx.DiGraph()
        self.links = {}  # directed pair -> delay, in creation order

    def add_link(self, a, b, delay, bidirectional):
        for u, v in [(a, b)] + ([(b, a)] if bidirectional else []):
            self.links[(u, v)] = delay
            self.graph.add_edge(u, v, delay=delay)

    def set_link_up(self, a, b, up, bidirectional=True):
        changed = []
        for u, v in [(a, b)] + ([(b, a)] if bidirectional else []):
            if up and not self.graph.has_edge(u, v):
                self.graph.add_edge(u, v, delay=self.links[(u, v)])
                changed.append((u, v))
            elif not up and self.graph.has_edge(u, v):
                self.graph.remove_edge(u, v)
                changed.append((u, v))
        return changed

    def next_hops(self):
        """``Network.build_routes`` as it was: all-pairs, eager."""
        tables = {}
        for src_name in self.graph.nodes:
            next_hop = tables[src_name] = {}
            paths = nx.single_source_dijkstra_path(self.graph, src_name, weight="delay")
            for dst_name, path in paths.items():
                if dst_name == src_name or len(path) < 2:
                    continue
                next_hop[dst_name] = path[1]
        return tables


class Rig:
    """A ``Network`` and its shadow, driven by one script."""

    def __init__(self, n, links, n_initial):
        self.net = Network(Scheduler())
        self.shadow = Shadow()
        for i in range(n):
            self.net.add_node(i)
            self.shadow.graph.add_node(i)
        self.added = []
        self.spare = list(links[n_initial:])
        for link in links[:n_initial]:
            self.add(link)

    def add(self, link):
        a, b, delay, two_way = link
        self.net.add_link(a, b, bandwidth=1e6, delay=delay, bidirectional=two_way)
        self.shadow.add_link(a, b, delay, two_way)
        self.added.append(link)

    def apply(self, op):
        if op[0] == "link":
            _, index, up, both = op
            a, b, _delay, two_way = self.added[index % len(self.added)]
            both = both and two_way
            assert self.net.set_link_up(a, b, up, bidirectional=both) == (
                self.shadow.set_link_up(a, b, up, bidirectional=both))
        elif self.spare:
            self.add(self.spare.pop(0))

    def check(self):
        net, graph = self.net, self.shadow.graph
        eager = self.shadow.next_hops()
        for source in net.nodes:
            assert list(net.neighbors(source)) == list(graph.successors(source))
            dist, paths = nx.single_source_dijkstra(graph, source, weight="delay")
            got_dist, got_paths = net._paths_from(source)
            assert list(got_dist.items()) == list(dist.items())
            assert [(k, list(p)) for k, p in got_paths.items()] == list(paths.items())
            for target in net.nodes:
                assert net.shortest_path_or_none(source, target) == paths.get(target)
            for target in list(net.nodes) + ["nobody"]:
                assert net.next_hop(source, target) == eager[source].get(target)


@st.composite
def flap_scripts(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links = []
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12, unique=True)):
        if draw(st.booleans()):
            a, b = b, a
        links.append((a, b, draw(st.sampled_from(DELAYS)), draw(st.booleans())))
    n_initial = draw(st.integers(min_value=1, max_value=len(links)))
    link = st.integers(min_value=0, max_value=len(links) - 1)
    op = st.one_of(
        st.tuples(st.just("link"), link, st.booleans(), st.booleans()),
        st.tuples(st.just("add")),
    )
    steps = draw(st.lists(op, min_size=1, max_size=10))
    return n, links, n_initial, steps


SQUARE = [(0, 1, 0.1, True), (0, 2, 0.1, True), (1, 3, 0.1, True), (2, 3, 0.1, True)]


# Remove/re-add on a tie: 0->3 goes via 1 until link 0-1 flaps, via 2 after.
@example((4, SQUARE, 4,
          [("link", 0, False, True), ("link", 0, True, True),
           ("link", 1, False, True), ("link", 1, True, True)]))
# One direction of a two-way link down, a one-way chord added mid-script.
@example((4, SQUARE + [(3, 0, 0.2, False)], 4,
          [("link", 2, False, False), ("add",), ("link", 4, False, True)]))
@given(flap_scripts())
@settings(deadline=None)
def test_routing_core_equals_networkx_after_every_step(script):
    n, links, n_initial, steps = script
    rig = Rig(n, links, n_initial)
    rig.check()
    for op in steps:
        rig.apply(op)
        rig.check()


def test_a_restored_link_moves_to_the_back_of_its_tie():
    """What the first ``@example`` above turns on."""
    rig = Rig(4, SQUARE, 4)
    assert rig.net.shortest_path(0, 3) == [0, 1, 3]
    rig.apply(("link", 0, False, True))
    rig.apply(("link", 0, True, True))
    assert list(rig.net.neighbors(0)) == [2, 1]
    assert rig.net.shortest_path(0, 3) == [0, 2, 3]
    assert rig.net.next_hop(0, 3) == 2


# ----------------------------------------------------------------------
# Contract: next hops are read from the per-source maps, computed on first
# use, a stub's from its neighbour's
# ----------------------------------------------------------------------
def line_abc():
    sched = Scheduler()
    net = Network(sched)
    for name in "abc":
        net.add_node(name)
    net.add_link("a", "b", bandwidth=1e6, delay=0.01)
    net.add_link("b", "c", bandwidth=1e6, delay=0.01)
    return sched, net


@pytest.fixture
def searches(monkeypatch):
    """The source of every ``Network._search`` call, in call order."""
    calls = []
    real = Network._search

    def counting(self, source, *args, **kwargs):
        calls.append(source)
        return real(self, source, *args, **kwargs)

    monkeypatch.setattr(Network, "_search", counting)
    return calls


def test_cut_off_destination_costs_one_search_then_only_no_route(searches):
    sched, net = line_abc()
    got = []
    net.node("c").bind_port("app", got.append)
    a = net.node("a")
    a.send(Packet(src="a", dst="c", port="app"))
    sched.run(until=1.0)
    assert len(got) == 1
    # "a" is a stub: it costs no search, its neighbour "b" costs one and
    # forwards from the map that search made; "c" only delivers.
    assert searches == ["b"]
    assert net.next_hop("a", "c") == "b" and searches == ["b"]

    net.set_link_up("b", "c", False)  # no build_routes(): nobody has to ask
    del searches[:]
    for _ in range(3):
        a.send(Packet(src="a", dst="c", port="app"))
    sched.run(until=2.0)
    assert len(got) == 1
    assert a.stats.no_route == 3
    # "a" and "b" are now each other's one neighbour: "a" reads the map of
    # "b", and the misses after the first cost nothing.
    assert searches == ["b"]
    assert net.next_hop("a", "b") == "b" and net.next_hop("a", "c") is None

    net.set_link_up("b", "c", True)
    a.send(Packet(src="a", dst="c", port="app"))
    sched.run(until=3.0)
    assert len(got) == 2


def test_tables_of_nodes_that_never_send_are_never_filled(searches):
    sched, net = line_abc()
    net.node("a").send(Packet(src="a", dst="b", port="none"))
    sched.run(until=1.0)
    # The stub "a" sent to its own neighbour: no map was needed at all.
    assert searches == [] and net._spt == {}
    # Its first lookup further out makes its neighbour's map, nobody else's.
    assert net.next_hop("a", "c") == "b" and searches == ["b"]
    assert list(net._spt) == ["b"]
    assert net.next_hop("b", "a") == "a" and net.next_hop("b", "c") == "c"
    assert searches == ["b"]


def test_a_tree_root_that_forwards_unicast_costs_one_search_per_epoch(searches):
    """The map a tree reads is the map unicast reads: "b" roots a tree and
    forwards "a"'s packets, and pays for one search per topology epoch."""
    sched = Scheduler()
    net = Network(sched)
    for name in "abcd":
        net.add_node(name)
    for leaf in "acd":
        net.add_link("b", leaf, bandwidth=1e6, delay=0.01)
    got = []
    net.node("c").bind_port("app", got.append)
    for epoch in range(2):
        assert net.cached_path("b", "c") == ("b", "c")
        net.node("a").send(Packet(src="a", dst="c", port="app"))
        sched.run(until=epoch + 1.0)
        assert len(got) == epoch + 1
        assert searches == ["b"] * (epoch + 1)
        net.set_link_up("b", "d", False)  # a new epoch


def test_two_stub_component_searches_without_recursion(searches):
    sched = Scheduler()
    net = Network(sched)
    for name in "xy":
        net.add_node(name)
    net.add_link("x", "y", bandwidth=1e6, delay=0.01)
    got = []
    net.node("y").bind_port("app", got.append)
    net.node("x").send(Packet(src="x", dst="y", port="app"))
    net.node("x").send(Packet(src="x", dst="z", port="app"))
    sched.run(until=1.0)
    assert len(got) == 1 and net.node("x").stats.no_route == 1
    assert searches == ["y"]  # the map of "y" answers "x", once
    assert net.next_hop("x", "y") == "y" and net.next_hop("x", "x") is None
    assert searches == ["y"]


def test_stub_whose_neighbour_crashed_has_no_route(searches):
    sched, net = line_abc()
    a = net.node("a")
    assert net.next_hop("a", "c") == "b" and searches == ["b"]
    net.set_link_up("a", "b", False)  # "a" has no live successor left
    del searches[:]
    a.send(Packet(src="a", dst="c", port="app"))
    a.send(Packet(src="a", dst="b", port="app"))
    sched.run(until=1.0)
    ab = net.link("a", "b")  # a packet offered to a down link is a drop
    assert a.stats.no_route == 2 and sum(ab.drops.values()) == ab.stats.tx_packets == 0
    assert searches == ["a"] and net.next_hop("a", "b") is None

    net.set_link_up("a", "b", True)  # a stub again
    del searches[:]
    assert net.next_hop("a", "c") == "b" and searches == ["b"]


def test_stub_counts_no_route_for_what_its_neighbour_cannot_reach(searches):
    sched, net = line_abc()
    net.add_node("d")
    net.add_link("b", "d", bandwidth=1e6, delay=0.01)
    net.set_link_up("b", "c", False)  # "b" keeps two successors, "a" and "d"
    a, b = net.node("a"), net.node("b")
    a.send(Packet(src="a", dst="c", port="app"))
    sched.run(until=1.0)
    assert searches == ["b"]
    assert a.stats.no_route == 1 and net.link("a", "b").stats.tx_packets == 0
    assert b.stats.no_route == 0
    assert net.next_hop("a", "d") == "b" and net.next_hop("a", "a") is None


def test_node_added_after_the_first_run_receives_unicast():
    sc = Scenario(seed=1)
    sc.add_node("s")
    sc.add_node("m")
    sc.add_link("s", "m", bandwidth=10e6, delay=0.05)
    sc.run(1.0)
    sc.add_node("late")
    sc.add_link("m", "late", bandwidth=10e6, delay=0.05)
    got = []
    sc.network.node("late").bind_port("app", lambda p: got.append(sc.sched.now))
    sent = sc.sched.now
    sc.network.node("s").send(Packet(src="s", dst="late", port="app"))
    sc.run(1.0)
    # Two hops of 0.8 ms serialization and 50 ms propagation.
    assert len(got) == 1 and got[0] - sent == pytest.approx(2 * (0.0008 + 0.05))
