"""Unit tests for nodes, unicast forwarding and network routing."""

import pytest

from repro.simnet.engine import Scheduler
from repro.simnet.link import DROP_QUEUE_FULL
from repro.simnet.packet import Packet
from repro.simnet.topology import Network


def line_network(n=4, bandwidth=1e6, delay=0.1):
    """n0 - n1 - ... - n{n-1} chain."""
    sched = Scheduler()
    net = Network(sched)
    for i in range(n):
        net.add_node(f"n{i}")
    for i in range(n - 1):
        net.add_link(f"n{i}", f"n{i + 1}", bandwidth=bandwidth, delay=delay)
    net.build_routes()
    return sched, net


def test_duplicate_node_rejected():
    net = Network(Scheduler())
    net.add_node("a")
    with pytest.raises(ValueError):
        net.add_node("a")


def test_link_requires_existing_endpoints():
    net = Network(Scheduler())
    net.add_node("a")
    with pytest.raises(KeyError):
        net.add_link("a", "missing", bandwidth=1e6)


def test_duplicate_link_rejected():
    net = Network(Scheduler())
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", bandwidth=1e6)
    with pytest.raises(ValueError):
        net.add_link("a", "b", bandwidth=1e6)


def test_two_way_link_over_a_one_way_link_is_rejected_whole():
    """Either direction already linked is a duplicate, and nothing of the
    new link is built: the one-way link keeps its queue and its delay."""
    net = Network(Scheduler())
    net.add_node("a")
    net.add_node("b")
    back = net.add_link("b", "a", bandwidth=1e6, delay=0.3, bidirectional=False)
    epoch = net.topology_epoch
    with pytest.raises(ValueError):
        net.add_link("a", "b", bandwidth=1e6, delay=0.1)
    assert net.links == {("b", "a"): back} and net.node("b").links == {"a": back}
    assert net.node("a").links == {} and list(net.neighbors("a")) == []
    assert net.edge_delay("b", "a") == 0.3 and net.topology_epoch == epoch


def test_bidirectional_creates_both_directions():
    net = Network(Scheduler())
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", bandwidth=1e6)
    assert ("a", "b") in net.links and ("b", "a") in net.links


def test_unidirectional_link():
    net = Network(Scheduler())
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", bandwidth=1e6, bidirectional=False)
    assert ("b", "a") not in net.links


def test_next_hop_along_chain():
    _, net = line_network(4)
    assert net.next_hop("n0", "n3") == "n1"
    assert net.next_hop("n1", "n3") == "n2"
    assert net.next_hop("n3", "n0") == "n2"


def test_unicast_end_to_end_delivery():
    sched, net = line_network(4, delay=0.1)
    got = []
    net.node("n3").bind_port("app", lambda p: got.append((sched.now, p)))
    pkt = Packet(src="n0", dst="n3", port="app", size=1000)
    net.node("n0").send(pkt)
    sched.run(until=5.0)
    assert len(got) == 1
    # 3 hops: 3 * (8ms serialization + 100ms propagation)
    assert got[0][0] == pytest.approx(3 * (0.008 + 0.1))

    # A sustained stream at 80 % of line rate crosses the same 3 hops whole.
    sched, net = line_network(4, bandwidth=100e6, delay=0.001)
    latency = []  # packet i is sent at i * 1e-4
    net.node("n3").bind_port("sink", lambda p: latency.append(sched.now - p.seq * 1e-4))
    for i in range(20_000):
        sched.at(i * 1e-4, net.node("n0").send,
                 Packet(src="n0", dst="n3", port="sink", size=1000, seq=i))
    sched.run(until=10.0)
    # Three hops of 80 us serialization and 1 ms propagation, no queueing.
    assert len(latency) == 20_000
    assert latency == pytest.approx([3 * (8e-5 + 1e-3)] * 20_000)


def test_unicast_to_unknown_destination_counts_no_route():
    sched, net = line_network(2)
    pkt = Packet(src="n0", dst="nowhere", port="app")
    net.node("n0").send(pkt)
    sched.run(until=1.0)
    assert net.node("n0").stats.no_route == 1


def test_unicast_to_unbound_port_counts_no_route():
    sched, net = line_network(2)
    net.node("n0").send(Packet(src="n0", dst="n1", port="ghost"))
    sched.run(until=1.0)
    assert net.node("n1").stats.no_route == 1


def test_port_rebinding_rejected():
    _, net = line_network(2)
    net.node("n0").bind_port("p", lambda p: None)
    with pytest.raises(ValueError):
        net.node("n0").bind_port("p", lambda p: None)


def test_unbind_port():
    _, net = line_network(2)
    node = net.node("n0")
    node.bind_port("p", lambda p: None)
    node.unbind_port("p")
    node.bind_port("p", lambda p: None)  # rebinding now allowed
    node.unbind_port("missing")  # no-op


def test_local_delivery_without_links():
    sched = Scheduler()
    net = Network(sched)
    node = net.add_node("solo")
    got = []
    node.bind_port("app", got.append)
    node.send(Packet(src="solo", dst="solo", port="app"))
    sched.run(until=0.1)
    assert len(got) == 1


def test_routing_prefers_low_delay_path():
    sched = Scheduler()
    net = Network(sched)
    for name in "abcd":
        net.add_node(name)
    net.add_link("a", "b", bandwidth=1e6, delay=1.0)  # slow direct path
    net.add_link("a", "c", bandwidth=1e6, delay=0.1)
    net.add_link("c", "d", bandwidth=1e6, delay=0.1)
    net.add_link("d", "b", bandwidth=1e6, delay=0.1)  # fast detour
    net.build_routes()
    assert net.next_hop("a", "b") == "c"
    assert net.shortest_path("a", "b") == ["a", "c", "d", "b"]
    assert net.path_delay("a", "b") == pytest.approx(0.3)


def test_total_drops_aggregates_queues():
    sched, net = line_network(2, bandwidth=1e6)
    link = net.link("n0", "n1")
    for _ in range(200):
        link.send(Packet(src="n0", dst="n1", port="x"))
    assert net.total_drops() > 0
    assert net.total_drops() == link.drops[DROP_QUEUE_FULL]


def test_describe_mentions_links():
    _, net = line_network(3)
    text = net.describe()
    assert "3 nodes" in text
    assert "n0" in text and "n1" in text


def test_neighbors():
    _, net = line_network(3)
    assert set(net.neighbors("n1")) == {"n0", "n2"}


def test_queue_factory_used():
    from repro.simnet.queues import DropTailQueue

    made = []

    def factory():
        q = DropTailQueue(capacity=3)
        made.append(q)
        return q

    net = Network(Scheduler())
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", bandwidth=1e6, queue_factory=factory)
    assert len(made) == 2  # one per direction
    assert net.link("a", "b").discipline is made[0] and made[0].capacity == 3
