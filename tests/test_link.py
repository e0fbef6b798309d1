"""Unit tests for link serialization, propagation and queueing."""

import pytest

from repro.simnet.engine import Scheduler
from repro.simnet.link import DROP_LINK_DOWN, DROP_QUEUE_FULL, Link
from repro.simnet.packet import Packet
from repro.simnet.queues import DropTailQueue


class Sink:
    """Stub node that records (time, packet) arrivals."""

    def __init__(self, sched, name="sink"):
        self.sched = sched
        self.name = name
        self.arrivals = []

    def receive(self, pkt, link):
        self.arrivals.append((self.sched.now, pkt))


class Stub:
    def __init__(self, name):
        self.name = name


def make_link(bandwidth=1e6, delay=0.2, qcap=4):
    sched = Scheduler()
    dst = Sink(sched)
    link = Link(sched, Stub("src"), dst, bandwidth, delay, DropTailQueue(qcap))
    return sched, link, dst


def pkt(size=1000):
    return Packet(src="src", dst="sink", size=size)


def test_delivery_time_is_serialization_plus_propagation():
    # 1000 B at 1 Mb/s = 8 ms serialization; +200 ms propagation = 208 ms.
    sched, link, dst = make_link(bandwidth=1e6, delay=0.2)
    link.send(pkt(1000))
    sched.run(until=1.0)
    assert len(dst.arrivals) == 1
    assert dst.arrivals[0][0] == pytest.approx(0.208)


def test_back_to_back_packets_serialize_sequentially():
    sched, link, dst = make_link(bandwidth=1e6, delay=0.0)
    link.send(pkt(1000))
    link.send(pkt(1000))
    sched.run(until=1.0)
    times = [t for t, _ in dst.arrivals]
    assert times[0] == pytest.approx(0.008)
    assert times[1] == pytest.approx(0.016)


def test_queue_overflow_drops():
    sched, link, dst = make_link(bandwidth=1e6, delay=0.0, qcap=2)
    # One transmitting + 2 queued fit; the 4th and 5th are dropped.
    results = [link.send(pkt()) for _ in range(5)]
    assert results == [True, True, True, False, False]
    sched.run(until=1.0)
    assert len(dst.arrivals) == 3
    assert link.drops[DROP_QUEUE_FULL] == 2


def test_fifo_delivery_order():
    sched, link, dst = make_link(delay=0.0, qcap=10)
    pkts = [pkt() for _ in range(5)]
    for p in pkts:
        link.send(p)
    sched.run(until=1.0)
    assert [p for _, p in dst.arrivals] == pkts


def test_tx_counters():
    sched, link, dst = make_link()
    link.send(pkt(500))
    link.send(pkt(700))
    sched.run(until=1.0)
    assert link.stats.tx_packets == 2
    assert link.stats.tx_bytes == 1200


def test_busy_time_tracks_utilization():
    sched, link, _ = make_link(bandwidth=1e6, delay=0.0, qcap=20)
    for _ in range(10):
        link.send(pkt(1000))  # 10 * 8 ms = 80 ms busy
    sched.run(until=1.0)
    assert link.stats.busy_time == pytest.approx(0.08)
    assert link.stats.utilization(1.0) == pytest.approx(0.08)


def test_utilization_zero_elapsed():
    _, link, _ = make_link()
    assert link.stats.utilization(0.0) == 0.0


def test_down_link_drops_everything():
    sched, link, dst = make_link()
    link.send(pkt())
    link.set_down()
    assert link.send(pkt()) is False
    sched.run(until=1.0)
    # The packet already serializing still completes (bits on the wire),
    # but the one sent while down is gone.
    assert len(dst.arrivals) == 1
    assert link.drops[DROP_LINK_DOWN] == 1


def test_set_down_flushes_queue():
    sched, link, dst = make_link(delay=0.0, qcap=10)
    for _ in range(5):
        link.send(pkt())
    link.set_down()
    assert link.backlog == 0 and link.drops[DROP_LINK_DOWN] == 4
    sched.run(until=1.0)
    assert len(dst.arrivals) == 1  # only the in-flight one


def test_link_recovers_after_set_up():
    sched, link, dst = make_link()
    link.set_down()
    link.set_up()
    assert link.send(pkt()) is True
    sched.run(until=1.0)
    assert len(dst.arrivals) == 1


def test_parameter_validation():
    sched = Scheduler()
    with pytest.raises(ValueError):
        Link(sched, Stub("a"), Sink(sched), bandwidth=0, delay=0.1, discipline=DropTailQueue(8))
    with pytest.raises(ValueError):
        Link(sched, Stub("a"), Sink(sched), bandwidth=1e6, delay=-1, discipline=DropTailQueue(8))


def test_slow_link_long_serialization():
    # 56 Kb/s modem: 1000 B takes ~142.9 ms to serialize.
    sched, link, dst = make_link(bandwidth=56_000, delay=0.0)
    link.send(pkt(1000))
    sched.run(until=1.0)
    assert dst.arrivals[0][0] == pytest.approx(8000 / 56_000)


def test_sustained_overload_drop_rate():
    """Offering 2x the link rate for a while drops about half the packets."""
    sched, link, dst = make_link(bandwidth=1e6, delay=0.0, qcap=5)
    # 1 Mb/s link; send 250 packets/s of 1000 B = 2 Mb/s for 2 seconds.
    n = 500
    for i in range(n):
        sched.at(i * 0.004, link.send, pkt())
    sched.run(until=5.0)
    delivered = len(dst.arrivals)
    assert delivered == pytest.approx(n / 2, rel=0.1)
    assert link.drops[DROP_QUEUE_FULL] == n - delivered
