"""Network's per-epoch shortest-path state: freshness, ownership, isolation.

``Network`` keeps one single-source Dijkstra result per queried source until
the routing graph's structure changes.  These tests pin the contract the
tree builders rely on: a cached answer is always the answer a fresh search
would give, callers cannot corrupt it, and ``simnet/topology.py`` is the only
place the graph's structure is ever mutated (so it is the only place that has
to invalidate).

networkx is the from-scratch reference here and nowhere under ``src/``: the
reference searches run on a ``DiGraph`` rebuilt from ``Network``'s read-only
view of its adjacency (``neighbors`` in stored order, ``edge_delay``).
"""

import re
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.session_topology import SessionTree
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network, NoPathError

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def routing_graph(net):
    """The routing graph as it stands, as a ``DiGraph`` whose adjacency
    order is the one ``Network`` searches in."""
    graph = nx.DiGraph()
    graph.add_nodes_from(net.nodes)
    for u in net.nodes:
        for v in net.neighbors(u):
            graph.add_edge(u, v, delay=net.edge_delay(u, v))
    return graph


def _fresh_path(graph, a, b):
    """What an uncached search on ``graph`` as it stands returns."""
    try:
        return nx.dijkstra_path(graph, a, b, weight="delay")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


class UncachedNetwork(Network):
    """Reference implementation: every query is a fresh search."""

    def shortest_path(self, a, b):
        return nx.dijkstra_path(routing_graph(self), a, b, weight="delay")

    def shortest_path_or_none(self, a, b):
        return _fresh_path(routing_graph(self), a, b)

    def path_delay(self, a, b):
        return nx.dijkstra_path_length(routing_graph(self), a, b, weight="delay")

    def cached_path(self, a, b):
        path = _fresh_path(routing_graph(self), a, b)
        return None if path is None else tuple(path)


def square_network():
    """a-b-d and a-c-d with equal delays, plus a slow direct a-d chord."""
    net = Network(Scheduler())
    for name in "abcd":
        net.add_node(name)
    for x, y, delay in [("a", "b", 0.1), ("a", "c", 0.1), ("b", "d", 0.1),
                        ("c", "d", 0.1), ("a", "d", 0.5)]:
        net.add_link(x, y, bandwidth=1e6, delay=delay)
    net.build_routes()
    return net


# ----------------------------------------------------------------------
# Unit contract
# ----------------------------------------------------------------------
def test_cached_paths_cannot_be_corrupted_by_callers():
    net = square_network()
    first = net.shortest_path("a", "d")
    first.append("junk")
    first[0] = "junk"
    maybe = net.shortest_path_or_none("a", "d")
    maybe.clear()
    graph = routing_graph(net)
    assert net.shortest_path("a", "d") == _fresh_path(graph, "a", "d")
    assert net.shortest_path_or_none("a", "d") == _fresh_path(graph, "a", "d")


def test_set_link_bandwidth_keeps_epoch_and_cached_paths(monkeypatch):
    net = square_network()
    searches = []
    real = Network._search

    def counting(self, source, *args, **kwargs):
        searches.append(source)
        return real(self, source, *args, **kwargs)

    monkeypatch.setattr(Network, "_search", counting)
    before = net.shortest_path("a", "d")
    assert "a" in net._spt  # warmed by build_routes()
    epoch = net.topology_epoch
    net.set_link_bandwidth("a", "b", 5e5)
    assert net.topology_epoch == epoch
    assert net.link("a", "b").bandwidth == net.link("b", "a").bandwidth == 5e5
    assert net.shortest_path("a", "d") == before
    assert net.path_delay("a", "d") == pytest.approx(0.2)
    assert net.next_hop("a", "d") == before[1]
    assert searches == [], "a capacity change must not cost a new search"


def test_structural_changes_start_a_new_epoch_and_refresh_paths():
    net = square_network()
    via = net.shortest_path("a", "d")[1]
    other = "c" if via == "b" else "b"
    epoch = net.topology_epoch

    assert net.set_link_up("a", via, False)
    assert net.topology_epoch > epoch
    assert net.shortest_path("a", "d") == ["a", other, "d"]
    epoch = net.topology_epoch
    assert net.set_link_up("a", via, False) == []  # already down: no change
    assert net.topology_epoch == epoch

    net.set_node_up(other, False)
    assert net.shortest_path("a", "d") == ["a", "d"]
    assert net.path_delay("a", "d") == pytest.approx(0.5)
    with pytest.raises(NoPathError):
        net.shortest_path("a", other)
    with pytest.raises(NoPathError):
        net.path_delay("a", other)
    with pytest.raises(NoPathError):
        net.shortest_path("nowhere", "a")
    assert net.shortest_path_or_none("a", other) is None
    assert net.shortest_path_or_none("nowhere", "a") is None

    net.set_node_up(other, True)
    net.set_link_up("a", via, True)
    graph = routing_graph(net)
    for x in "abcd":
        for y in "abcd":
            assert net.shortest_path_or_none(x, y) == _fresh_path(graph, x, y)

    epoch = net.topology_epoch
    net.add_node("e")
    net.add_link("a", "e", bandwidth=1e6, delay=0.01)
    net.add_link("e", "d", bandwidth=1e6, delay=0.01)
    assert net.topology_epoch > epoch
    assert net.shortest_path("a", "d") == ["a", "e", "d"]


def test_node_recovery_keeps_links_to_crashed_neighbours_down():
    net = Network(Scheduler())
    for name in "abc":
        net.add_node(name)
    net.add_link("a", "b", bandwidth=1e6, delay=0.1)
    net.add_link("b", "c", bandwidth=1e6, delay=0.1)
    net.set_node_up("b", False)
    net.set_node_up("c", False)

    assert net.set_node_up("b", True) == [("a", "b"), ("b", "a")]
    assert not net.has_edge("b", "c") and not net.has_edge("c", "b")
    assert not net.link("b", "c").up
    assert net.shortest_path_or_none("a", "c") is None

    assert net.set_node_up("c", True) == [("b", "c"), ("c", "b")]
    assert net.shortest_path("a", "c") == ["a", "b", "c"]


def test_node_recovery_keeps_a_link_fault_down():
    """A link a link fault took down stays down through a crash and
    recovery of its endpoint; only bringing the link up restores it."""
    net = Network(Scheduler())
    for name in "abc":
        net.add_node(name)
    for x, y, delay in [("a", "b", 0.1), ("a", "c", 0.3), ("c", "b", 0.1)]:
        net.add_link(x, y, bandwidth=1e6, delay=delay)
    net.set_link_up("a", "b", False)
    net.set_node_up("b", False)

    assert net.set_node_up("b", True) == [("c", "b"), ("b", "c")]
    assert not net.has_edge("a", "b") and not net.link("a", "b").up
    assert net.shortest_path("a", "b") == ["a", "c", "b"]

    assert net.set_link_up("a", "b", True) == [("a", "b"), ("b", "a")]
    assert net.shortest_path("a", "b") == ["a", "b"]


def test_link_up_keeps_the_link_to_a_crashed_node_down():
    """Bringing a link up releases its hold but revives no direction with
    a crashed endpoint; the node's recovery brings those back."""
    net = Network(Scheduler())
    for name in "abc":
        net.add_node(name)
    for x, y, delay in [("a", "b", 0.1), ("a", "c", 0.3), ("c", "b", 0.1)]:
        net.add_link(x, y, bandwidth=1e6, delay=delay)
    net.set_node_up("b", False)

    assert net.set_link_up("a", "b", True) == []
    assert not net.has_edge("a", "b") and not net.link("a", "b").up
    assert net.shortest_path_or_none("a", "b") is None

    net.set_link_up("a", "b", False)
    assert net.set_link_up("a", "b", True) == []  # the hold is released ...
    assert net.set_node_up("b", True) == [("a", "b"), ("b", "a"), ("c", "b"), ("b", "c")]
    assert net.shortest_path("a", "b") == ["a", "b"]  # ... so recovery restores it


def test_routing_graph_structure_is_mutated_only_in_topology_py():
    """The single invalidation point: the adjacency is private to
    ``Network``, so nothing else under src/repro may so much as name it (a
    mutation there the path cache and the next-hop tables would never hear
    of)."""
    mutation = re.compile(r"\b_adj\b")
    offenders = [
        f"{path.relative_to(SRC_ROOT)}:{lineno}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        if path.relative_to(SRC_ROOT).as_posix() != "simnet/topology.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if mutation.search(line)
    ]
    assert offenders == []


# ----------------------------------------------------------------------
# Differential oracle: cached run vs a from-scratch reference run
# ----------------------------------------------------------------------
@st.composite
def tie_rich_scenarios(draw):
    """A connected graph whose delays come from two values, so equal-delay
    alternatives are the norm, plus an interleaving of membership changes
    and link/node faults."""
    n = draw(st.integers(min_value=4, max_value=8))
    delay = st.sampled_from([0.1, 0.2])
    links = {}
    for child in range(1, n):  # random spanning tree keeps it connected
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        links[(parent, child)] = draw(delay)
    for _ in range(draw(st.integers(min_value=1, max_value=n))):
        a = draw(st.integers(min_value=0, max_value=n - 2))
        b = draw(st.integers(min_value=a + 1, max_value=n - 1))
        links.setdefault((a, b), draw(delay))
    links = sorted(links.items())
    node = st.integers(min_value=0, max_value=n - 1)
    group = st.integers(min_value=0, max_value=2)
    op = st.one_of(
        st.tuples(st.just("join"), group, node),
        st.tuples(st.just("leave"), group, node),
        st.tuples(st.just("link"), st.integers(min_value=0, max_value=len(links) - 1),
                  st.booleans()),
        st.tuples(st.just("node"), node, st.booleans()),
    )
    return n, links, draw(st.lists(op, min_size=1, max_size=14))


class _Run:
    """One network + manager driven by the scenario's operations."""

    def __init__(self, network_cls, n, links):
        self.sched = Scheduler()
        self.net = network_cls(self.sched)
        for i in range(n):
            self.net.add_node(i)
        for (a, b), delay in links:
            self.net.add_link(a, b, bandwidth=1e6, delay=delay)
        self.net.build_routes()
        self.links = [edge for edge, _ in links]
        self.mcast = MulticastManager(self.net, leave_latency=0.5)
        # Groups 0 and 2 share source 0, like two layers of one session.
        self.groups = [self.mcast.create_group(0), self.mcast.create_group(n - 1),
                       self.mcast.create_group(0)]
        # Every full build, as (source, epoch).
        self.tree_log = []
        build = self.mcast.builder.build

        def logged_build(source, *args):
            self.tree_log.append((source, self.net.topology_epoch))
            return build(source, *args)

        self.mcast.builder.build = logged_build

    def canonical(self, source):
        """Whether the source's tree was last fully built at the current
        epoch — the tree a graft or prune may edit in place."""
        last = [epoch for s, epoch in self.tree_log if s == source][-1:]
        return last == [self.net.topology_epoch]

    def apply(self, op):
        kind = op[0]
        if kind == "join":
            self.mcast.join(self.groups[op[1]], op[2])
        elif kind == "leave":
            self.mcast.leave(self.groups[op[1]], op[2])
        else:
            up = op[2]
            changed = (self.net.set_link_up(*self.links[op[1]], up) if kind == "link"
                       else self.net.set_node_up(op[1], up))
            self.mcast.on_topology_change(
                **{"added_edges" if up else "removed_edges": changed})
        self.sched.run(until=self.sched.now + 5.0)  # let grafts/prunes apply

    def trees(self):
        return {g: (frozenset(s.members), frozenset(s.edges))
                for g, s in self.mcast.groups.items()}

    def source_groups(self, source):
        return [s for s in self.mcast.groups.values() if s.source == source]

    def union_members(self, source):
        return frozenset().union(*(s.members for s in self.source_groups(source)))


def _cut(tree, source, members):
    """``tree`` cut to ``members``: each member's path up to ``source``."""
    parent = {v: u for u, v in tree}
    assert len(parent) == len(tree), "the builder's tree gives a node two parents"
    edges = set()
    for member in members:
        node = member
        while node != source and node in parent:
            edges.add((parent[node], node))
            node = parent[node]
    return edges


@given(tie_rich_scenarios())
@example((  # a layer joined during a crash kept its detour after recovery
    4, [((0, 1), 0.1), ((0, 2), 0.1), ((1, 3), 0.2), ((2, 3), 0.1)],
    [("join", 0, 3), ("node", 2, False), ("join", 2, 3), ("node", 2, True)],
))
@example((  # a layer joined during an outage next to a rebuilt sibling
    6, [((0, 1), 0.1), ((1, 2), 0.1), ((2, 3), 0.1), ((0, 4), 0.2), ((3, 4), 0.2),
        ((0, 5), 0.2), ((2, 5), 0.2)],
    [("join", 0, 3), ("link", 1, False), ("join", 2, 3)],
))
@example((  # a first join right after a repair: the rebuild moved 2 onto
    # 0-5-2, and the join grafts onto the rebuilt tree
    6, [((0, 1), 0.1), ((0, 4), 0.1), ((0, 5), 0.1), ((1, 2), 0.1), ((1, 3), 0.1),
        ((2, 5), 0.2), ((3, 4), 0.1)],
    [("join", 0, 2), ("join", 0, 3), ("link", 0, False), ("join", 2, 4)],
))
@example((  # a last leave whose branch point 1 still serves a sibling layer
    4, [((0, 1), 0.1), ((1, 2), 0.1), ((1, 3), 0.1), ((2, 3), 0.2)],
    [("join", 0, 3), ("join", 2, 2), ("leave", 0, 3), ("join", 0, 2)],
))
@settings(max_examples=40, deadline=None)
def test_cached_run_equals_from_scratch_run_after_every_step(scenario):
    """The "incremental == from-scratch" oracle (ROADMAP item 5).

    The same interleaving drives a cached :class:`Network` and the uncached
    reference above.  After every step: each cached path equals a fresh
    search on the graph as it stands, each group's members and tree equal
    the ones the reference run built from per-member searches.

    Three invariants hold against the graph itself.  Groups 0 and 2 share a
    source, so their trees must merge into one session tree (one parent per
    node) after every step, an outage included.  After every step that
    changed a source's member set (the union of its groups' members) or
    restored edges, each group of that source is the builder's tree over
    the union, cut to the group's own members; only a removal may leave a
    tree that differs from it, when it misses the tree and so rebuilds
    nothing.  And that cut is the union of fresh per-member shortest paths.

    Membership changes cost a path: a join or leave on a tree fully built
    at the current epoch grafts or prunes it in place, with no call to
    ``builder.build``.
    """
    n, links, ops = scenario
    cached = _Run(Network, n, links)
    reference = _Run(UncachedNetwork, n, links)
    sources = sorted({s.source for s in cached.mcast.groups.values()})
    for op in ops:
        before = {source: cached.union_members(source) for source in sources}
        edges_before = set(routing_graph(cached.net).edges)
        canonical = {source for source in sources if cached.canonical(source)}
        builds = len(cached.tree_log)
        cached.apply(op)
        reference.apply(op)
        if op[0] in ("join", "leave"):
            source = cached.mcast.source_of(cached.groups[op[1]])
            assert source not in canonical or all(
                s != source for s, _ in cached.tree_log[builds:])
        graph = routing_graph(cached.net)
        for a in range(n):
            for b in range(n):
                assert cached.net.shortest_path_or_none(a, b) == _fresh_path(graph, a, b)
        assert cached.trees() == reference.trees()
        layers = [cached.mcast.groups[cached.groups[i]].edges for i in (0, 2)]
        SessionTree.from_layer_snapshots("s", 0, layers, {})
        restored = bool(set(graph.edges) - edges_before)
        for source in sources:
            union = cached.union_members(source)
            if not restored and union == before[source]:
                continue
            tree = cached.mcast.builder.build(source, sorted(union), cached.net)
            for state in cached.source_groups(source):
                assert state.edges == _cut(tree, source, state.members)
                spt = set()
                for member in sorted(state.members):
                    path = _fresh_path(graph, source, member) or ()
                    spt.update(zip(path, path[1:]))
                assert state.edges == spt
