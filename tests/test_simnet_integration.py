"""End-to-end conservation and ordering invariants of the simulator."""

import pytest

from repro.media.layers import LayerSchedule
from repro.media.receiver import LayeredReceiver
from repro.media.source import LayeredSource
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.link import DROP_QUEUE_FULL
from repro.simnet.packet import Packet
from repro.simnet.topology import Network


def test_packet_conservation_on_saturated_link():
    """sent = delivered + dropped (+ nothing else) once the queue drains."""
    sched = Scheduler()
    net = Network(sched)
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", bandwidth=1e6, delay=0.01, queue_limit=16)
    net.build_routes()
    got = []
    net.node("b").bind_port("sink", got.append)
    n = 1000
    for i in range(n):
        # 2x overload for 4 seconds.
        sched.at(i * 0.004, net.node("a").send,
                 Packet(src="a", dst="b", port="sink", size=1000))
    sched.run(until=30.0)
    link = net.link("a", "b")
    assert len(got) + link.drops[DROP_QUEUE_FULL] == n
    assert link.stats.tx_packets == len(got)


def test_fifo_ordering_survives_congestion():
    sched = Scheduler()
    net = Network(sched)
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", bandwidth=500e3, delay=0.05, queue_limit=8)
    net.build_routes()
    got = []
    net.node("b").bind_port("sink", got.append)
    for i in range(500):
        sched.at(i * 0.005, net.node("a").send,
                 Packet(src="a", dst="b", port="sink", seq=i, size=1000))
    sched.run(until=30.0)
    seqs = [p.seq for p in got]
    assert seqs == sorted(seqs)  # drops create gaps but never reordering


@pytest.mark.usefixtures("no_igmp_delay")
def test_multicast_fanout_duplicates_only_at_branch():
    """A 2-receiver tree sends each packet once on the shared link and once
    per branch below the fork."""
    sched = Scheduler()
    net = Network(sched)
    for n in ["s", "f", "r1", "r2"]:
        net.add_node(n)
    net.add_link("s", "f", bandwidth=10e6, delay=0.01)
    net.add_link("f", "r1", bandwidth=10e6, delay=0.01)
    net.add_link("f", "r2", bandwidth=10e6, delay=0.01)
    net.build_routes()
    mcast = MulticastManager(net, leave_latency=2.0)
    schedule = LayerSchedule(n_layers=1, base_rate=32_000)
    g = mcast.create_group("s")
    src = LayeredSource(net.node("s"), 0, [g], schedule, model="cbr")
    rcv1 = LayeredReceiver(net.node("r1"), 0, [g], schedule, mcast, initial_level=1)
    rcv2 = LayeredReceiver(net.node("r2"), 0, [g], schedule, mcast, initial_level=1)
    sched.run(until=1.0)  # let grafts settle before data flows
    src.start()
    sched.run(until=21.0)
    shared = net.link("s", "f").stats.tx_packets
    b1 = net.link("f", "r1").stats.tx_packets
    b2 = net.link("f", "r2").stats.tx_packets
    assert shared > 0
    assert abs(b1 - shared) <= 1 and abs(b2 - shared) <= 1
    # And both receivers saw essentially every packet.
    assert rcv1.total_bytes == rcv2.total_bytes
    assert rcv1.total_bytes == pytest.approx(shared * 1000, abs=2000)


def test_busy_time_never_exceeds_elapsed():
    sched = Scheduler()
    net = Network(sched)
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", bandwidth=100e3, delay=0.0, queue_limit=8)
    net.build_routes()
    for i in range(200):
        sched.at(i * 0.01, net.node("a").send,
                 Packet(src="a", dst="b", port="x", size=1000))
    sched.run(until=20.0)
    link = net.link("a", "b")
    assert 0.0 < link.stats.busy_time <= 20.0
    assert link.stats.utilization(20.0) <= 1.0


@pytest.mark.usefixtures("no_igmp_delay")
def test_receiver_loss_matches_link_drops():
    """The receiver's gap count equals the upstream queue's drop count (one
    flow, one bottleneck)."""
    sched = Scheduler()
    net = Network(sched)
    for n in ["s", "r"]:
        net.add_node(n)
    net.add_link("s", "r", bandwidth=100e3, delay=0.01, queue_limit=8)
    net.build_routes()
    mcast = MulticastManager(net, leave_latency=2.0)
    # 2 layers = 96k on a 100k link is fine; 3 layers = 224k drops hard.
    schedule = LayerSchedule(n_layers=3, base_rate=32_000)
    groups = [mcast.create_group("s") for _ in range(3)]
    src = LayeredSource(net.node("s"), 0, groups, schedule, model="cbr")
    rcv = LayeredReceiver(net.node("r"), 0, groups, schedule, mcast, initial_level=3)
    sched.run(until=1.0)
    src.start()
    sched.run(until=60.0)
    stats = rcv.interval_stats()
    drops = net.link("s", "r").drops[DROP_QUEUE_FULL]
    assert drops > 0
    # Gap detection lags the last in-flight packets; allow small slack.
    assert stats.lost == pytest.approx(drops, abs=drops * 0.1 + 20)
