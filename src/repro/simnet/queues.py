"""Link queues.

The paper's evaluation uses drop-tail FIFO queues at every node (section IV).
:class:`DropTailQueue` reproduces that policy; :class:`REDQueue` is provided
as an extension for the "dealing with bursty traffic" discussion in section V
(random early detection absorbs bursts more gracefully and is a natural
ablation for the capacity estimator).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .packet import Packet

__all__ = ["QueueStats", "DropTailQueue", "REDQueue"]


class QueueStats:
    """Drop tallies shared by all queue disciplines (tail, early and
    link-down drops alike)."""

    __slots__ = ("dropped", "bytes_dropped")

    def __init__(self) -> None:
        self.dropped = 0
        self.bytes_dropped = 0


class DropTailQueue:
    """Bounded FIFO queue: arrivals beyond ``capacity`` packets are dropped.

    ``capacity`` counts packets, matching ns-2's default DropTail behaviour
    used in the paper's simulations.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._q: Deque[Packet] = deque()
        self.stats = QueueStats()

    def push(self, pkt: Packet) -> bool:
        """Offer ``pkt``; returns True if accepted, False if tail-dropped."""
        if len(self._q) >= self.capacity:
            stats = self.stats
            stats.dropped += 1
            stats.bytes_dropped += pkt.size
            return False
        self._q.append(pkt)
        return True

    def pop(self) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or None when empty."""
        if not self._q:
            return None
        return self._q.popleft()

    def __len__(self) -> int:
        return len(self._q)

    def __bool__(self) -> bool:
        return bool(self._q)


class REDQueue(DropTailQueue):
    """Random Early Detection queue (extension; not used by paper's runs).

    Implements the gentle RED variant: below :attr:`MIN_TH` (average queue
    length) packets are always accepted; between :attr:`MIN_TH` and
    :attr:`MAX_TH` packets are dropped with probability rising linearly to
    :attr:`MAX_P`; above :attr:`MAX_TH` the drop probability rises linearly
    to 1 at ``2 * MAX_TH``.  The average queue length uses an EWMA with
    weight :attr:`WQ`.  The values are the ``ablation_red`` row's; its
    capacity equals the 31 packets the drop-tail arm's 500 kb/s access
    links get.
    """

    #: Queue capacity in packets.
    CAPACITY = 31
    #: Average queue length below which no packet is dropped early.
    MIN_TH = 4.0
    #: Average queue length where the early-drop probability reaches MAX_P.
    MAX_TH = 16.0
    MAX_P = 0.1
    #: EWMA weight of the average queue length.
    WQ = 0.002

    def __init__(self, rng) -> None:
        super().__init__(self.CAPACITY)
        self.avg = 0.0
        self._rng = rng

    def _drop_probability(self) -> float:
        min_th, max_th, max_p = self.MIN_TH, self.MAX_TH, self.MAX_P
        if self.avg < min_th:
            return 0.0
        if self.avg < max_th:
            return max_p * (self.avg - min_th) / (max_th - min_th)
        if self.avg < 2 * max_th:
            # gentle region: ramp from max_p to 1
            return max_p + (1 - max_p) * (self.avg - max_th) / max_th
        return 1.0

    def push(self, pkt: Packet) -> bool:
        self.avg = (1 - self.WQ) * self.avg + self.WQ * len(self._q)
        if len(self._q) >= self.capacity:
            self.stats.dropped += 1
            self.stats.bytes_dropped += pkt.size
            return False
        if self._rng.random() < self._drop_probability():
            self.stats.dropped += 1
            self.stats.bytes_dropped += pkt.size
            return False
        self._q.append(pkt)
        return True
