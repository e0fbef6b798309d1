"""Unit tests for multicast membership, trees, graft/leave latency."""

import pytest

from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.packet import Packet
from repro.simnet.topology import Network


def star_network():
    r"""src - core - {a, b, c} star, 100 ms links.

           src
            |
          core
          / | \
         a  b  c
    """
    sched = Scheduler()
    net = Network(sched)
    for name in ["src", "core", "a", "b", "c"]:
        net.add_node(name)
    for leaf in ["a", "b", "c"]:
        net.add_link("core", leaf, bandwidth=1e6, delay=0.1)
    net.add_link("src", "core", bandwidth=1e6, delay=0.1)
    net.build_routes()
    return sched, net


def test_create_group_allocates_addresses():
    sched, net = star_network()
    m = MulticastManager(net)
    g1 = m.create_group("src")
    g2 = m.create_group("src")
    assert g1 != g2
    assert m.source_of(g1) == "src"


def test_create_group_unknown_source():
    sched, net = star_network()
    with pytest.raises(KeyError):
        MulticastManager(net).create_group("ghost")


def test_duplicate_explicit_group_rejected():
    sched, net = star_network()
    m = MulticastManager(net)
    m.create_group("src", group=7)
    with pytest.raises(ValueError):
        m.create_group("src", group=7)


def test_join_builds_tree_after_graft_delay():
    sched, net = star_network()
    m = MulticastManager(net, igmp_report_delay=0.0)
    g = m.create_group("src")
    eff = m.join(g, "a")
    # graft travels a -> core -> src: 0.2 s
    assert eff == pytest.approx(0.2)
    assert m.members(g) == frozenset()
    sched.run(until=eff + 0.001)
    assert m.members(g) == frozenset({"a"})
    assert m.tree_edges(g) == frozenset({("src", "core"), ("core", "a")})


def test_second_join_grafts_at_nearest_on_tree_router():
    sched, net = star_network()
    m = MulticastManager(net, igmp_report_delay=0.0)
    g = m.create_group("src")
    m.join(g, "a")
    sched.run(until=0.5)
    eff = m.join(g, "b")
    # core is already on the tree; graft only needs b -> core = 0.1 s
    assert eff - sched.now == pytest.approx(0.1)
    sched.run(until=eff + 0.001)
    assert m.tree_edges(g) == frozenset(
        {("src", "core"), ("core", "a"), ("core", "b")}
    )


def test_source_join_is_near_instant():
    sched, net = star_network()
    m = MulticastManager(net, igmp_report_delay=0.05)
    g = m.create_group("src")
    eff = m.join(g, "src")
    assert eff == pytest.approx(0.05)


def test_leave_takes_leave_latency():
    sched, net = star_network()
    m = MulticastManager(net, leave_latency=2.0, igmp_report_delay=0.0)
    g = m.create_group("src")
    m.join(g, "a")
    sched.run(until=1.0)
    eff = m.leave(g, "a")
    assert eff == pytest.approx(3.0)
    sched.run(until=2.9)
    assert "a" in m.members(g)  # still receiving
    sched.run(until=3.1)
    assert m.members(g) == frozenset()
    assert m.tree_edges(g) == frozenset()


def test_leave_prunes_only_empty_branches():
    sched, net = star_network()
    m = MulticastManager(net, leave_latency=0.5, igmp_report_delay=0.0)
    g = m.create_group("src")
    m.join(g, "a")
    m.join(g, "b")
    sched.run(until=1.0)
    m.leave(g, "a")
    sched.run(until=2.0)
    assert m.tree_edges(g) == frozenset({("src", "core"), ("core", "b")})


def test_join_then_leave_race_resolves_to_latest_request():
    sched, net = star_network()
    m = MulticastManager(net, leave_latency=0.05, igmp_report_delay=0.0)
    g = m.create_group("src")
    m.join(g, "a")  # effective at 0.2
    m.leave(g, "a")  # effective at 0.05, before the join applies
    sched.run(until=1.0)
    # Last request was leave -> not a member.
    assert m.members(g) == frozenset()


def test_leave_then_rejoin_race():
    sched, net = star_network()
    m = MulticastManager(net, leave_latency=2.0, igmp_report_delay=0.0)
    g = m.create_group("src")
    m.join(g, "a")
    sched.run(until=1.0)
    m.leave(g, "a")  # would apply at 3.0
    sched.run(until=1.5)
    m.join(g, "a")  # re-join before the leave applies
    sched.run(until=5.0)
    assert "a" in m.members(g)


def test_forwarding_tables_installed():
    sched, net = star_network()
    m = MulticastManager(net, igmp_report_delay=0.0)
    g = m.create_group("src")
    m.join(g, "a")
    m.join(g, "c")
    sched.run(until=1.0)
    assert net.node("src").mcast_fwd[g] == ("core",)
    assert net.node("core").mcast_fwd[g] == ("a", "c")  # link order
    assert g not in net.node("b").mcast_fwd


def test_data_flows_only_to_members():
    sched, net = star_network()
    m = MulticastManager(net, igmp_report_delay=0.0)
    g = m.create_group("src")
    got_a, got_b = [], []
    net.node("a").add_group_handler(g, got_a.append)
    net.node("b").add_group_handler(g, got_b.append)
    m.join(g, "a")
    sched.run(until=1.0)
    net.node("src").send(Packet(src="src", group=g))
    sched.run(until=2.0)
    assert len(got_a) == 1
    assert len(got_b) == 0


def test_no_duplicate_delivery_on_shared_path():
    sched, net = star_network()
    m = MulticastManager(net, igmp_report_delay=0.0)
    g = m.create_group("src")
    got_a, got_c = [], []
    net.node("a").add_group_handler(g, got_a.append)
    net.node("c").add_group_handler(g, got_c.append)
    m.join(g, "a")
    m.join(g, "c")
    sched.run(until=1.0)
    for _ in range(5):
        net.node("src").send(Packet(src="src", group=g))
    sched.run(until=2.0)
    assert len(got_a) == 5
    assert len(got_c) == 5
    # The shared src->core link carried each packet exactly once.
    assert net.link("src", "core").stats.tx_packets == 5


def test_snapshot_history_supports_stale_queries():
    sched, net = star_network()
    m = MulticastManager(net, igmp_report_delay=0.0)
    g = m.create_group("src")
    m.join(g, "a")  # applies at 0.2
    sched.run(until=5.0)
    m.join(g, "b")  # applies at 5.1
    sched.run(until=10.0)
    assert m.snapshot_at(g, 3.0) == frozenset({("src", "core"), ("core", "a")})
    assert m.snapshot_at(g, 0.1) == frozenset()
    assert m.snapshot_at(g, 10.0) == frozenset(
        {("src", "core"), ("core", "a"), ("core", "b")})
    assert m.snapshot_at(g, 10.0) == m.tree_edges(g)


def test_snapshot_before_creation_returns_initial():
    sched, net = star_network()
    m = MulticastManager(net)
    sched.run(until=4.0)
    g = m.create_group("src")
    assert m.snapshot_at(g, 0.0) == frozenset()
    assert m.snapshot_at(99, 4.0) == frozenset()  # unknown group: empty tree


def test_unknown_group_raises():
    sched, net = star_network()
    m = MulticastManager(net)
    with pytest.raises(KeyError):
        m.join(99, "a")
    with pytest.raises(KeyError):
        m.members(99)


def test_unknown_member_raises():
    sched, net = star_network()
    m = MulticastManager(net)
    g = m.create_group("src")
    with pytest.raises(KeyError):
        m.join(g, "ghost")


def test_negative_latency_rejected():
    sched, net = star_network()
    with pytest.raises(ValueError):
        MulticastManager(net, leave_latency=-1)


def test_group_handler_removal():
    sched, net = star_network()
    m = MulticastManager(net, igmp_report_delay=0.0)
    g = m.create_group("src")
    got = []

    def handler(pkt):
        got.append(pkt)

    node_a = net.node("a")
    node_a.add_group_handler(g, handler)
    m.join(g, "a")
    sched.run(until=1.0)
    node_a.remove_group_handler(g, handler)
    net.node("src").send(Packet(src="src", group=g))
    sched.run(until=2.0)
    assert got == []
    node_a.remove_group_handler(g, handler)  # removing twice is a no-op


# ----------------------------------------------------------------------
# Incremental topology reaction & tree repair
# ----------------------------------------------------------------------
def diamond_network():
    r"""src - core - {a, b} with an a--b cross link and one leaf each.

    Every single aggregation-link failure leaves the graph connected, so a
    protecting builder can patch the tree locally.
    """
    sched = Scheduler()
    net = Network(sched)
    for name in ["src", "core", "a", "b", "r1", "r2"]:
        net.add_node(name)
    net.add_link("src", "core", bandwidth=1e6, delay=0.1)
    net.add_link("core", "a", bandwidth=1e6, delay=0.1)
    net.add_link("core", "b", bandwidth=1e6, delay=0.1)
    net.add_link("a", "b", bandwidth=1e6, delay=0.5)
    net.add_link("a", "r1", bandwidth=1e6, delay=0.1)
    net.add_link("b", "r2", bandwidth=1e6, delay=0.1)
    net.build_routes()
    return sched, net


def _toggle_log(m, g):
    """A copy of group ``g``'s edge-toggle log."""
    return {edge: list(ts) for edge, ts in m.groups[g].toggles.items()}


def test_incremental_change_skips_unaffected_groups():
    """A link failure must not recompute — or log a toggle for — groups
    whose trees never used the failed link (the whole point of the
    incremental path)."""
    sched, net = star_network()
    m = MulticastManager(net, igmp_report_delay=0.0)
    g1 = m.create_group("src")
    g2 = m.create_group("src")
    m.join(g1, "a")
    m.join(g2, "b")
    sched.run(until=1.0)

    builds_before = m.builds
    log_g2_before = _toggle_log(m, g2)
    removed = net.set_link_up("core", "a", False)
    net.build_routes()
    changed = m.on_topology_change(removed_edges=removed)

    assert changed == 1  # only g1's tree used core--a
    assert m.groups_skipped == 1
    assert m.builds == builds_before + 1  # one rebuild, not one per group
    assert _toggle_log(m, g2) == log_g2_before  # g2 untouched
    assert m.tree_edges(g2) == frozenset({("src", "core"), ("core", "b")})

    # Restoring the link reinstalls only the group whose tree it changes:
    # g2's build on the restored graph is the tree it already has.
    added = net.set_link_up("core", "a", True)
    net.build_routes()
    assert m.on_topology_change(added_edges=added) == 1
    assert m.groups_skipped == 2
    assert _toggle_log(m, g2) == log_g2_before
    assert m.tree_edges(g1) == frozenset({("src", "core"), ("core", "a")})


def test_restore_reverts_a_group_built_during_the_outage():
    """Two layer groups of one session: g1's tree lost the failed link and
    was rebuilt, g2 gained its member during the outage, so its tree was
    built on the degraded graph and the failure never touched it.  At
    restore both must end on the canonical tree, or the session's layers
    give r1's branch two different parents."""
    sched, net = diamond_network()
    m = MulticastManager(net, igmp_report_delay=0.0)
    g1 = m.create_group("src")
    g2 = m.create_group("src")
    m.join(g1, "r1")
    sched.run(until=1.0)

    m.on_topology_change(removed_edges=net.set_link_up("core", "a", False))
    m.join(g2, "r1")
    sched.run(until=2.0)
    detour = frozenset({("src", "core"), ("core", "b"), ("b", "a"), ("a", "r1")})
    assert m.tree_edges(g1) == m.tree_edges(g2) == detour

    assert m.on_topology_change(added_edges=net.set_link_up("core", "a", True)) == 2
    canonical = frozenset({("src", "core"), ("core", "a"), ("a", "r1")})
    assert m.tree_edges(g1) == m.tree_edges(g2) == canonical


def test_rapid_join_leave_keeps_snapshot_history_consistent():
    """Hammering join/leave on one member must leave snapshot_at queries
    internally consistent: the branch's edges toggle together at
    non-decreasing times, every snapshot is either a's branch or empty, and
    each query is answered by the install in force then."""
    sched, net = star_network()
    m = MulticastManager(net, leave_latency=0.3, igmp_report_delay=0.0)
    g = m.create_group("src")
    for i in range(6):
        sched.at(0.1 + 0.2 * i, m.join, g, "a")
        sched.at(0.2 + 0.2 * i, m.leave, g, "a")
    sched.run(until=5.0)
    assert m.members(g) == frozenset()  # last word was leave

    toggles = m.groups[g].toggles
    branch = frozenset({("src", "core"), ("core", "a")})
    assert set(toggles) == branch, "only a's branch was ever installed"
    times = toggles[("src", "core")]
    assert toggles[("core", "a")] == times, "the branch moves as one"
    assert len(times) > 1, "every applied change toggles"
    assert times == sorted(times)
    assert len(times) % 2 == 0, "the last install took the branch back"
    # Each install time alternates graft and prune; a query resolves to the
    # install in force at that instant (empty before the first).
    for k, t in enumerate(times):
        assert m.snapshot_at(g, t) == (branch if k % 2 == 0 else frozenset())
    for t in [0.0, 0.45, 1.17, 2.5, 4.9]:
        in_force = sum(tk <= t for tk in times)
        assert m.snapshot_at(g, t) == (branch if in_force % 2 else frozenset())


def test_prune_delay_stops_at_live_branch_point():
    """Expedited prunes travel only to the deepest ancestor still serving
    another member — including under interleaved pending joins/leaves."""
    sched, net = star_network()
    m = MulticastManager(net, expedited_leave=True, igmp_report_delay=0.0)
    g = m.create_group("src")
    m.join(g, "a")
    m.join(g, "b")
    sched.run(until=1.0)

    # b still holds the core branch: the prune stops after the a--core hop.
    assert m.leave(g, "a") - sched.now == pytest.approx(0.1)
    sched.run(until=2.0)
    m.join(g, "a")
    sched.run(until=3.0)

    # Last member: the prune must travel all the way to the source.
    m.leave(g, "b")
    sched.run(until=6.0)
    assert m.members(g) == frozenset({"a"})
    assert m.leave(g, "a") - sched.now == pytest.approx(0.2)

    # A *pending* join does not hold the branch: only applied membership
    # counts, so the same prune still runs to the source.
    m.join(g, "b")  # in flight, not yet applied
    assert m._prune_delay(m.groups[g], "a") == pytest.approx(0.2)


def test_set_blocked_on_mid_repair_tree():
    """Quarantining a member while the tree runs on a repair detour must
    keep the detour for the survivors, and the later link restore must
    still revert the group to its canonical tree."""
    sched, net = diamond_network()
    m = MulticastManager(net, igmp_report_delay=0.0)
    g = m.create_group("src")
    m.join(g, "r1")
    m.join(g, "r2")
    sched.run(until=1.0)

    removed = net.set_link_up("core", "a", False)
    net.build_routes()
    m.on_topology_change(removed_edges=removed)
    assert m.rebuild_repairs == 1
    assert ("b", "a") in m.tree_edges(g)  # running on the detour

    # Quarantine r2 mid-repair: its branch is torn down and r1 keeps the
    # (still necessary) detour.
    m.set_blocked(g, "r2", True)
    sched.run(until=2.0)
    assert m.members(g) == frozenset({"r1"})
    assert ("b", "r2") not in m.tree_edges(g)
    assert {("core", "b"), ("b", "a"), ("a", "r1")} <= m.tree_edges(g)
    assert g not in net.node("b").mcast_fwd or "r2" not in net.node("b").mcast_fwd[g]

    # Link restore reverts the group to the canonical build.
    added = net.set_link_up("core", "a", True)
    net.build_routes()
    assert m.on_topology_change(added_edges=added) == 1
    assert m.tree_edges(g) == frozenset(
        {("src", "core"), ("core", "a"), ("a", "r1")}
    )
