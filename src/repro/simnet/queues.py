"""Queue disciplines: admission rules for a link's FIFO.

The paper's evaluation uses drop-tail FIFO queues at every node (section IV).
The FIFO itself is the link's (see :mod:`repro.simnet.link`); a discipline
only decides whether a packet offered to a busy link may join it.
:class:`DropTailQueue` reproduces the paper's policy; :class:`REDQueue` is
provided as an extension for the "dealing with bursty traffic" discussion in
section V (random early detection absorbs bursts more gracefully and is a
natural ablation for the capacity estimator).  Drops are counted by the link,
not here.
"""

from __future__ import annotations

__all__ = ["DropTailQueue", "REDQueue"]


class DropTailQueue:
    """Bounded FIFO: arrivals beyond ``capacity`` waiting packets are dropped.

    ``capacity`` counts packets, matching ns-2's default DropTail behaviour
    used in the paper's simulations.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity

    def admit(self, backlog: int, idle: float, tx_time: float) -> bool:
        """Whether a packet offered behind ``backlog`` waiting packets (the
        one on the wire not counted) may join them.  ``idle`` is the
        seconds the link spent idle before its current busy period, and
        ``tx_time`` the offered packet's serialization time; only RED's
        average reads them."""
        return backlog < self.capacity


class REDQueue(DropTailQueue):
    """Random Early Detection queue (extension; not used by paper's runs).

    Implements the gentle RED variant: below :attr:`MIN_TH` (average queue
    length) packets are always accepted; between :attr:`MIN_TH` and
    :attr:`MAX_TH` packets are dropped with probability rising linearly to
    :attr:`MAX_P`; above :attr:`MAX_TH` the drop probability rises linearly
    to 1 at ``2 * MAX_TH``.  The average queue length uses an EWMA with
    weight :attr:`WQ`, updated on every offer to the busy link.  Idle time
    decays it as Floyd & Jacobson prescribe ("Random Early Detection
    Gateways for Congestion Avoidance", 1993, §4): ``avg *= (1 - WQ) ** m``
    for the ``m`` packets (of the offered packet's size) the link could
    have sent while idle; the link reports its idle time on each offer.
    The values are the ``ablation_red`` row's; its capacity equals the 31
    packets the drop-tail arm's 500 kb/s access links get.
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
        #: The link's ``idle`` seconds the average has decayed for.
        self._idle_seen = 0.0
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

    def admit(self, backlog: int, idle: float, tx_time: float) -> bool:
        if idle > self._idle_seen:
            # The link idled since the last offer: decay the average as if
            # an empty queue had been sampled once per packet time.
            self.avg *= (1 - self.WQ) ** ((idle - self._idle_seen) / tx_time)
            self._idle_seen = idle
        self.avg = (1 - self.WQ) * self.avg + self.WQ * backlog
        if backlog >= self.capacity:
            return False
        return not self._rng.random() < self._drop_probability()
