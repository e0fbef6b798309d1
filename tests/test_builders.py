"""Unit tests for the pluggable tree-builder backends."""

import pytest

from repro.multicast.builders import (
    BUILDER_NAMES,
    ProtectedTreeBuilder,
    SPTBuilder,
    TreeBuilder,
    make_builder,
)
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


def chain_with_detour():
    r"""Chain src-core-a-b-m plus a slow detour core-alt-b.

    Cutting core--a orphans {a, b, m}; the only backup path re-enters the
    subtree at ``b`` (not at its old root ``a``), forcing a re-root.
    """
    return _network(
        ["src", "core", "a", "b", "m", "alt"],
        [
            ("src", "core", 0.1),
            ("core", "a", 0.1),
            ("a", "b", 0.1),
            ("b", "m", 0.1),
            ("core", "alt", 0.3),
            ("alt", "b", 0.3),
        ],
    )


def _spt_union(net, source, members):
    edges = set()
    for m in members:
        path = net.shortest_path_or_none(source, m)
        for u, v in zip(path, path[1:]):
            edges.add((u, v))
    return edges


def _in_degree(edges):
    deg = {}
    for _u, v in edges:
        deg[v] = deg.get(v, 0) + 1
    return deg


def _covers(edges, source, members):
    """True when every member is reachable from ``source`` over ``edges``."""
    children = {}
    for u, v in edges:
        children.setdefault(u, []).append(v)
    seen = {source}
    stack = [source]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return set(members) <= seen


# ----------------------------------------------------------------------
# SPT backend
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


# ----------------------------------------------------------------------
# Protected backend
# ----------------------------------------------------------------------
def test_protected_precomputes_backup_for_every_tree_edge():
    _sched, net = diamond_network()
    b = ProtectedTreeBuilder()
    tree = b.build("src", ["r1", "r2"], net)
    b.precompute("src", tree, net)
    backups = b._backups["src"]
    # src--core and the leaf access links have no alternative path; both
    # aggregation hops are protected by the cross link.
    assert set(backups) == {("core", "a"), ("core", "b")}
    assert backups[("core", "a")] == ("src", "core", "b", "a")


def test_protected_local_repair_splices_backup_branch():
    _sched, net = diamond_network()
    b = ProtectedTreeBuilder()
    tree = b.build("src", ["r1", "r2"], net)
    frozen = frozenset(tree)
    b.precompute("src", tree, net)
    healed = b.repair("src", tree, [("core", "a")], net)
    assert healed is not None
    assert tree == frozen  # the input tree is not mutated
    assert tree - healed == {("core", "a")}
    assert healed - tree == {("b", "a")}
    assert _covers(healed, "src", ["r1", "r2"])
    # The b branch never moved: repair was local to the orphaned subtree.
    assert {("core", "b"), ("b", "r2")} <= healed


def test_protected_repair_reroots_subtree_at_backup_entry():
    _sched, net = chain_with_detour()
    b = ProtectedTreeBuilder()
    tree = b.build("src", ["a", "m"], net)
    assert tree == {("src", "core"), ("core", "a"), ("a", "b"), ("b", "m")}
    b.precompute("src", tree, net)
    healed = b.repair("src", tree, [("core", "a")], net)
    assert healed is not None
    # The backup enters the orphaned subtree at b, so the a--b hop reverses.
    assert healed == {
        ("src", "core"), ("core", "alt"), ("alt", "b"), ("b", "m"), ("b", "a"),
    }
    assert _covers(healed, "src", ["a", "m"])
    assert max(_in_degree(healed).values()) <= 1


def test_protected_repair_refuses_multi_edge_loss():
    _sched, net = diamond_network()
    b = ProtectedTreeBuilder()
    tree = b.build("src", ["r1", "r2"], net)
    b.precompute("src", tree, net)
    assert b.repair("src", tree, [("core", "a"), ("core", "b")], net) is None


def test_protected_repair_refuses_dead_splice_edge():
    _sched, net = diamond_network()
    b = ProtectedTreeBuilder()
    tree = b.build("src", ["r1", "r2"], net)
    b.precompute("src", tree, net)
    # The precomputed backup for core--a splices over a--b; kill that link
    # too (stale backup) and the repair must be rejected, not installed.
    net.set_link_up("a", "b", False)
    assert b.repair("src", tree, [("core", "a")], net) is None


def test_protected_repair_without_precompute_or_backup_is_none():
    _sched, net = diamond_network()
    b = ProtectedTreeBuilder()
    tree = b.build("src", ["r1", "r2"], net)
    assert b.repair("src", tree, [("core", "a")], net) is None  # nothing precomputed
    b.precompute("src", tree, net)
    assert b.repair("src", tree, [("src", "core")], net) is None  # no backup exists
    assert b.repair("src", tree, [("ghost", "edge")], net) is None  # not a tree edge


# ----------------------------------------------------------------------
# make_builder
# ----------------------------------------------------------------------
def test_make_builder_resolves_names_and_instances():
    assert set(BUILDER_NAMES) == {"spt", "protected"}
    assert isinstance(make_builder("spt"), SPTBuilder)
    assert isinstance(make_builder(None), SPTBuilder)
    assert isinstance(make_builder("protected"), ProtectedTreeBuilder)
    instance = ProtectedTreeBuilder()
    assert make_builder(instance) is instance
    assert isinstance(make_builder("spt"), TreeBuilder)
    with pytest.raises(ValueError):
        make_builder("steiner-exact")
