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
from .rng import fallback_rng

__all__ = ["QueueStats", "DropTailQueue", "REDQueue"]


class QueueStats:
    """Counters shared by all queue disciplines."""

    __slots__ = ("enqueued", "dropped", "dequeued", "bytes_enqueued", "bytes_dropped")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0
        self.bytes_enqueued = 0
        self.bytes_dropped = 0

    @property
    def offered(self) -> int:
        """Total packets offered to the queue (accepted + dropped)."""
        return self.enqueued + self.dropped


class DropTailQueue:
    """Bounded FIFO queue: arrivals beyond ``capacity`` packets are dropped.

    ``capacity`` counts packets, matching ns-2's default DropTail behaviour
    used in the paper's simulations.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._q: Deque[Packet] = deque()
        self.stats = QueueStats()

    def push(self, pkt: Packet) -> bool:
        """Offer ``pkt``; returns True if accepted, False if tail-dropped."""
        stats = self.stats
        if len(self._q) >= self.capacity:
            stats.dropped += 1
            stats.bytes_dropped += pkt.size
            return False
        self._q.append(pkt)
        stats.enqueued += 1
        stats.bytes_enqueued += pkt.size
        return True

    def pop(self) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or None when empty."""
        if not self._q:
            return None
        self.stats.dequeued += 1
        return self._q.popleft()

    def __len__(self) -> int:
        return len(self._q)

    def __bool__(self) -> bool:
        return bool(self._q)


class REDQueue(DropTailQueue):
    """Random Early Detection queue (extension; not used by paper's runs).

    Implements the gentle RED variant: below ``min_th`` (average queue
    length) packets are always accepted; between ``min_th`` and ``max_th``
    packets are dropped with probability rising linearly to ``max_p``;
    above ``max_th`` the drop probability rises linearly to 1 at
    ``2 * max_th``.  The average queue length uses an EWMA with weight ``wq``.
    """

    def __init__(
        self,
        capacity: int = 64,
        min_th: float = 5.0,
        max_th: float = 15.0,
        max_p: float = 0.1,
        wq: float = 0.002,
        rng=None,
    ):
        super().__init__(capacity)
        if not 0 < min_th < max_th:
            raise ValueError("need 0 < min_th < max_th")
        if not 0 < max_p <= 1:
            raise ValueError("need 0 < max_p <= 1")
        self.min_th = min_th
        self.max_th = max_th
        self.max_p = max_p
        self.wq = wq
        self.avg = 0.0
        if rng is None:  # pragma: no cover - exercised via explicit rng in tests
            rng = fallback_rng()
        self._rng = rng

    def _drop_probability(self) -> float:
        if self.avg < self.min_th:
            return 0.0
        if self.avg < self.max_th:
            return self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th)
        if self.avg < 2 * self.max_th:
            # gentle region: ramp from max_p to 1
            return self.max_p + (1 - self.max_p) * (self.avg - self.max_th) / self.max_th
        return 1.0

    def push(self, pkt: Packet) -> bool:
        self.avg = (1 - self.wq) * self.avg + self.wq * len(self._q)
        if len(self._q) >= self.capacity:
            self.stats.dropped += 1
            self.stats.bytes_dropped += pkt.size
            return False
        if self._rng.random() < self._drop_probability():
            self.stats.dropped += 1
            self.stats.bytes_dropped += pkt.size
            return False
        self._q.append(pkt)
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += pkt.size
        return True
