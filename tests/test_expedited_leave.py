"""Unit tests for the expedited group-leave extension (paper §V)."""

import pytest

from repro.multicast import manager
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network

pytestmark = pytest.mark.usefixtures("no_igmp_delay")


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
    m = MulticastManager(net, leave_latency=2.0)
    m.expedited_leave = True
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
    m = MulticastManager(net, leave_latency=2.0)
    g = m.create_group("src")
    m.join(g, "a")
    sched.run(until=1.0)
    eff = m.leave(g, "a")
    assert eff - sched.now == pytest.approx(2.0)


def test_expedited_prune_stops_at_branch_point():
    sched, net = network()
    m = MulticastManager(net, leave_latency=2.0)
    m.expedited_leave = True
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


def test_expedited_leave_of_nonmember_is_fast_noop(monkeypatch):
    monkeypatch.setattr(manager, "IGMP_REPORT_DELAY", 0.01)
    sched, net = network()
    m = MulticastManager(net, leave_latency=2.0)
    m.expedited_leave = True
    g = m.create_group("src")
    eff = m.leave(g, "a")
    assert eff - sched.now == pytest.approx(0.01)
    sched.run(until=1.0)
    assert m.members(g) == frozenset()


def test_expedited_rejoin_race_still_resolves_to_latest():
    sched, net = network()
    m = MulticastManager(net, leave_latency=2.0)
    m.expedited_leave = True
    g = m.create_group("src")
    m.join(g, "a")
    sched.run(until=1.0)
    m.leave(g, "a")
    m.join(g, "a")  # immediately rejoin
    sched.run(until=3.0)
    assert m.members(g) == frozenset({"a"})


def test_expedited_prune_travels_the_installed_detour():
    """After a repair the group runs on a detour around the failed link:
    the prune walks the tree the routers hold now, not the one they held
    before the failure.

    0-1 fails under members 2 and 3, and the rebuild moves 2 onto 0-5-2 and
    3 onto 0-4-3.  2's prune runs 2-5-0 to the source, 0.3 s; on the tree
    before the failure it would have stopped at 1, which still served 3,
    after 0.1 s.
    """
    sched = Scheduler()
    net = Network(sched)
    for n in range(6):
        net.add_node(n)
    for a, b, delay in [(0, 1, 0.1), (0, 4, 0.1), (0, 5, 0.1), (1, 2, 0.1),
                        (1, 3, 0.1), (2, 5, 0.2), (3, 4, 0.1)]:
        net.add_link(a, b, bandwidth=1e6, delay=delay)
    m = MulticastManager(net, leave_latency=2.0)
    m.expedited_leave = True
    g = m.create_group(0)
    m.join(g, 2)
    m.join(g, 3)
    sched.run(until=1.0)
    assert m.tree_edges(g) == frozenset({(0, 1), (1, 2), (1, 3)})
    m.on_topology_change(removed_edges=net.set_link_up(0, 1, False))
    assert m.rebuild_repairs == 1
    assert m.tree_edges(g) == frozenset({(0, 5), (5, 2), (0, 4), (4, 3)})

    assert m.leave(g, 2) - sched.now == pytest.approx(0.3)
    sched.run(until=2.0)
    assert m.tree_edges(g) == frozenset({(0, 4), (4, 3)})
