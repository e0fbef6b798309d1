"""Unit tests for the expedited group-leave extension (paper §V)."""

import pytest

from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network


def network():
    r"""src - core - {a, b}, 100 ms links."""
    sched = Scheduler()
    net = Network(sched)
    for n in ["src", "core", "a", "b"]:
        net.add_node(n)
    net.add_link("src", "core", bandwidth=1e6, delay=0.1)
    net.add_link("core", "a", bandwidth=1e6, delay=0.1)
    net.add_link("core", "b", bandwidth=1e6, delay=0.1)
    net.build_routes()
    return sched, net


def test_expedited_leave_is_much_faster_than_igmp():
    sched, net = network()
    m = MulticastManager(net, leave_latency=2.0, igmp_report_delay=0.0,
                         expedited_leave=True)
    g = m.create_group("src")
    m.join(g, "a")
    sched.run(until=1.0)
    eff = m.leave(g, "a")
    # Prune travels a -> core -> src: 0.2 s, far below the 2 s IGMP timeout.
    assert eff - sched.now == pytest.approx(0.2)
    sched.run(until=1.3)
    assert m.members(g) == frozenset()


def test_standard_leave_still_waits_full_latency():
    sched, net = network()
    m = MulticastManager(net, leave_latency=2.0, igmp_report_delay=0.0,
                         expedited_leave=False)
    g = m.create_group("src")
    m.join(g, "a")
    sched.run(until=1.0)
    eff = m.leave(g, "a")
    assert eff - sched.now == pytest.approx(2.0)


def test_expedited_prune_stops_at_branch_point():
    sched, net = network()
    m = MulticastManager(net, leave_latency=2.0, igmp_report_delay=0.0,
                         expedited_leave=True)
    g = m.create_group("src")
    m.join(g, "a")
    m.join(g, "b")
    sched.run(until=1.0)
    # b's prune only needs to reach core (a is still downstream of core).
    eff = m.leave(g, "b")
    assert eff - sched.now == pytest.approx(0.1)
    sched.run(until=2.0)
    assert m.members(g) == frozenset({"a"})
    assert m.tree_edges(g) == frozenset({("src", "core"), ("core", "a")})


def test_expedited_leave_of_nonmember_is_fast_noop():
    sched, net = network()
    m = MulticastManager(net, leave_latency=2.0, igmp_report_delay=0.01,
                         expedited_leave=True)
    g = m.create_group("src")
    eff = m.leave(g, "a")
    assert eff - sched.now == pytest.approx(0.01)
    sched.run(until=1.0)
    assert m.members(g) == frozenset()


def test_expedited_rejoin_race_still_resolves_to_latest():
    sched, net = network()
    m = MulticastManager(net, leave_latency=2.0, igmp_report_delay=0.0,
                         expedited_leave=True)
    g = m.create_group("src")
    m.join(g, "a")
    sched.run(until=1.0)
    m.leave(g, "a")
    m.join(g, "a")  # immediately rejoin
    sched.run(until=3.0)
    assert m.members(g) == frozenset({"a"})


def test_expedited_prune_travels_the_installed_detour():
    """After a local repair the group runs on a detour, not on the shortest
    paths: the prune walks the tree the routers actually hold.

    0-1 fails under members 2 and 3; the protected builder splices the
    backup 0-4-3-1 and re-roots the orphaned subtree, so 2 hangs off
    0-4-3-1-2.  2's prune stops at 3 (still a member) after 2-1 and 1-3,
    0.2 s; the shortest path 0-5-2 would have charged 0.3 s to the source.
    """
    sched = Scheduler()
    net = Network(sched)
    for n in range(6):
        net.add_node(n)
    for a, b, delay in [(0, 1, 0.1), (0, 4, 0.1), (0, 5, 0.1), (1, 2, 0.1),
                        (1, 3, 0.1), (2, 5, 0.2), (3, 4, 0.1)]:
        net.add_link(a, b, bandwidth=1e6, delay=delay)
    m = MulticastManager(net, leave_latency=2.0, igmp_report_delay=0.0,
                         expedited_leave=True, builder="protected")
    g = m.create_group(0)
    m.join(g, 2)
    m.join(g, 3)
    sched.run(until=1.0)
    m.on_topology_change(removed_edges=net.set_link_up(0, 1, False))
    assert m.local_repairs == 1
    assert m.tree_edges(g) == frozenset({(0, 4), (4, 3), (3, 1), (1, 2)})
    assert net.shortest_path(0, 2) == [0, 5, 2]

    assert m.leave(g, 2) - sched.now == pytest.approx(0.2)
    sched.run(until=2.0)
    assert m.tree_edges(g) == frozenset({(0, 4), (4, 3)})
