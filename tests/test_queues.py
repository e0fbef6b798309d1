"""Unit tests for the drop-tail and RED admission rules.

A discipline holds no packets: the link's FIFO does, and the discipline
decides from the number waiting (``backlog``) whether an offer joins it.
"""

import numpy as np
import pytest

from repro.simnet.engine import Scheduler
from repro.simnet.link import DROP_QUEUE_FULL, Link
from repro.simnet.packet import Packet
from repro.simnet.queues import DropTailQueue, REDQueue


class Sink:
    name = "sink"

    def __init__(self):
        self.got = []

    def receive(self, pkt, link):
        self.got.append(pkt)


class Stub:
    name = "src"


#: Serialization time of a 1000-byte packet at the test links' 1 Mb/s.
TX = 0.008


def pkt(size=1000):
    return Packet(src="s", dst="d", size=size)


def link_with(discipline):
    sched = Scheduler()
    sink = Sink()
    return sched, Link(sched, Stub(), sink, 1e6, 0.0, discipline), sink


class TestDropTail:
    def test_fifo_order(self):
        sched, link, sink = link_with(DropTailQueue(capacity=10))
        pkts = [pkt(), pkt(), pkt(), pkt()]
        assert all(link.send(p) for p in pkts)
        sched.run(until=1.0)
        assert sink.got == pkts

    def test_tail_drop_beyond_capacity(self):
        q = DropTailQueue(capacity=2)
        assert q.admit(0, 0.0, TX) and q.admit(1, 0.0, TX)
        assert not q.admit(2, 0.0, TX) and not q.admit(5, 0.0, TX)

    def test_capacity_one(self):
        q = DropTailQueue(capacity=1)
        assert q.admit(0, 0.0, TX)
        assert not q.admit(1, 0.0, TX)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity=0)

    def test_drop_rate(self):
        # One on the wire, one waiting, the third offer refused: every offer
        # is held by the link's FIFO or counted as a drop.
        _, link, _ = link_with(DropTailQueue(capacity=1))
        accepted = [link.send(pkt()) for _ in range(3)]
        assert accepted == [True, True, False]
        assert link.busy + link.backlog + link.drops[DROP_QUEUE_FULL] == 3
        assert link.drops[DROP_QUEUE_FULL] == 1

    def test_len_and_bool(self):
        # ``backlog`` and ``busy`` are the link's view of the queue length.
        sched, link, _ = link_with(DropTailQueue(capacity=64))
        assert not link.busy and link.backlog == 0
        link.send(pkt())
        assert link.busy and link.backlog == 0
        link.send(pkt())
        assert link.backlog == 1
        sched.run(until=1.0)
        assert not link.busy and link.backlog == 0


def red(capacity, min_th, max_th, max_p=0.1, wq=0.002, seed=0):
    """A RED queue with other thresholds than ``REDQueue``'s constants."""
    cls = type("ThresholdRED", (REDQueue,), dict(
        CAPACITY=capacity, MIN_TH=min_th, MAX_TH=max_th, MAX_P=max_p, WQ=wq))
    return cls(np.random.default_rng(seed))


class TestRED:
    def test_accepts_below_min_threshold(self):
        q = red(capacity=50, min_th=5, max_th=15)
        assert all(q.admit(backlog, 0.0, TX) for backlog in range(4))

    def test_always_drops_when_full(self):
        q = red(capacity=3, min_th=1, max_th=2)
        assert not any(q.admit(3, 0.0, TX) for _ in range(10))

    def test_probabilistic_drops_in_ramp(self):
        q = red(capacity=200, min_th=2, max_th=10, max_p=0.5, wq=0.5, seed=42)
        backlog = 0
        for _ in range(150):
            backlog += q.admit(backlog, 0.0, TX)
        assert 0 < backlog < 150

    def test_thresholds_are_class_constants(self):
        assert 0 < REDQueue.MIN_TH < REDQueue.MAX_TH
        assert 0 < REDQueue.MAX_P <= 1 and 0 < REDQueue.WQ <= 1
        q = REDQueue(np.random.default_rng(0))
        assert q.capacity == REDQueue.CAPACITY
        with pytest.raises(TypeError):
            REDQueue(capacity=64, rng=np.random.default_rng(0))

    def test_drop_probability_regions(self):
        q = red(capacity=100, min_th=5, max_th=15, max_p=0.1)
        q.avg = 0.0
        assert q._drop_probability() == 0.0
        q.avg = 10.0
        assert 0 < q._drop_probability() < 0.1
        q.avg = 20.0  # gentle region
        assert 0.1 <= q._drop_probability() < 1.0
        q.avg = 40.0
        assert q._drop_probability() == 1.0

    def test_average_decays_while_the_link_is_idle(self):
        # A burst drives the average far above MAX_TH and keeps the link
        # busy for 0.5 s; after 990 s with nothing to send, the next offer
        # to the busy link finds it decayed (Floyd & Jacobson's idle
        # correction) instead of early-dropping with probability ~0.5.
        q = REDQueue(np.random.default_rng(0))
        sched = Scheduler()
        link = Link(sched, Stub(), Sink(), 500e3, 0.0, q)
        for _ in range(1000):
            link.send(pkt())
        assert q.avg > REDQueue.MAX_TH
        sched.run(until=990.5)
        assert not link.busy
        high = q.avg
        link.send(pkt())        # to the idle link: not offered to RED
        assert q.avg == high
        link.send(pkt())        # behind it: RED decays, then samples 0
        assert q.avg < REDQueue.MIN_TH

    def test_idle_decay_is_per_packet_time(self):
        q = red(capacity=50, min_th=5, max_th=15, wq=0.5)
        q.admit(10, 0.0, TX)
        assert q.avg == 5.0
        q.admit(10, 0.0, TX)
        assert q.avg == 7.5
        q.admit(0, 2 * TX, TX)  # two packet times idle: 7.5 / 4, then halved
        assert q.avg == 7.5 / 8
