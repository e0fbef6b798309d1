"""Unit tests for drop-tail and RED queues."""

import numpy as np
import pytest

from repro.simnet.packet import Packet
from repro.simnet.queues import DropTailQueue, REDQueue


def pkt(size=1000):
    return Packet(src="s", dst="d", size=size)


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(capacity=10)
        p1, p2, p3 = pkt(), pkt(), pkt()
        assert q.push(p1) and q.push(p2) and q.push(p3)
        assert q.pop() is p1
        assert q.pop() is p2
        assert q.pop() is p3

    def test_pop_empty_returns_none(self):
        assert DropTailQueue(capacity=64).pop() is None

    def test_tail_drop_beyond_capacity(self):
        q = DropTailQueue(capacity=2)
        assert q.push(pkt())
        assert q.push(pkt())
        assert not q.push(pkt())
        assert q.stats.dropped == 1
        assert len(q) == 2

    def test_capacity_one(self):
        q = DropTailQueue(capacity=1)
        assert q.push(pkt())
        assert not q.push(pkt())
        q.pop()
        assert q.push(pkt())

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity=0)

    def test_byte_counters(self):
        q = DropTailQueue(capacity=1)
        q.push(pkt(size=500))
        q.push(pkt(size=700))  # dropped
        assert q.stats.bytes_dropped == 700
        assert q.pop().size == 500 and q.pop() is None

    def test_drop_rate(self):
        q = DropTailQueue(capacity=1)
        q.push(pkt())
        q.push(pkt())
        # Every offer is held or counted as a drop.
        assert len(q) + q.stats.dropped == 2
        assert q.stats.dropped == 1

    def test_len_and_bool(self):
        q = DropTailQueue(capacity=64)
        assert not q and len(q) == 0
        q.push(pkt())
        assert q and len(q) == 1

    def test_dequeued_counter(self):
        q = DropTailQueue(capacity=64)
        p = pkt()
        q.push(p)
        assert q.pop() is p and len(q) == 0
        assert q.pop() is None


def red(capacity, min_th, max_th, max_p=0.1, wq=0.002, seed=0):
    """A RED queue with other thresholds than ``REDQueue``'s constants."""
    cls = type("ThresholdRED", (REDQueue,), dict(
        CAPACITY=capacity, MIN_TH=min_th, MAX_TH=max_th, MAX_P=max_p, WQ=wq))
    return cls(np.random.default_rng(seed))


class TestRED:
    def test_accepts_below_min_threshold(self):
        q = red(capacity=50, min_th=5, max_th=15)
        for _ in range(4):
            assert q.push(pkt())
        assert q.stats.dropped == 0

    def test_always_drops_when_full(self):
        q = red(capacity=3, min_th=1, max_th=2)
        for _ in range(10):
            q.push(pkt())
        assert len(q) <= 3
        assert q.stats.dropped >= 7

    def test_probabilistic_drops_in_ramp(self):
        q = red(capacity=200, min_th=2, max_th=10, max_p=0.5, wq=0.5, seed=42)
        accepted = sum(q.push(pkt()) for _ in range(150))
        assert 0 < q.stats.dropped < 150
        assert accepted + q.stats.dropped == 150

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
