"""Point-to-point links with serialization delay, propagation delay and a
bounded queue.

A :class:`Link` is unidirectional; :meth:`repro.simnet.topology.Network.add_link`
creates one in each direction.  The transmit path models store-and-forward:

* if the transmitter is idle, a packet starts serializing immediately
  (``size * 8 / bandwidth`` seconds);
* otherwise it is offered to the queue, where drop-tail (or RED) applies;
* after serialization the packet propagates for ``delay`` seconds and is
  delivered to the destination node.

This is the simulator's hot loop; it does no per-packet allocation beyond the
two scheduler events, and schedules both with ``sched.at(sched.now + delay)``
directly (``delay`` is non-negative by construction, so ``after``'s check
would be a second Python call for nothing).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from .packet import Packet
from .queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Scheduler
    from .node import Node

__all__ = [
    "Link",
    "LinkStats",
    "DROP_LINK_DOWN",
    "DROP_QUEUE_FULL",
    "DROP_WIRELESS",
    "DROP_REASONS",
]

#: Closed set of ``link.drop`` reasons.  Every ``_emit_drop`` call site must
#: pass one of these (enforced by lint rule R004); free-form reason strings
#: would silently fragment downstream loss attribution.
DROP_LINK_DOWN = "link_down"
DROP_QUEUE_FULL = "queue_full"
DROP_WIRELESS = "wireless"
DROP_REASONS = (DROP_LINK_DOWN, DROP_QUEUE_FULL, DROP_WIRELESS)


class LinkStats:
    """Per-link cumulative counters (in addition to the queue's own stats)."""

    __slots__ = ("tx_packets", "tx_bytes", "busy_time", "last_tx_end")

    def __init__(self) -> None:
        self.tx_packets = 0
        self.tx_bytes = 0
        self.busy_time = 0.0
        self.last_tx_end = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the transmitter was busy."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0


class Link:
    """Unidirectional link ``src -> dst``.

    Parameters
    ----------
    sched:
        The simulation scheduler.
    src, dst:
        Endpoint :class:`~repro.simnet.node.Node` objects.
    bandwidth:
        Capacity in bits per second.
    delay:
        One-way propagation delay in seconds (paper uses 200 ms everywhere).
    queue:
        Queue discipline instance; defaults to a 64-packet drop-tail queue.
    """

    __slots__ = ("sched", "src", "dst", "bandwidth", "delay", "queue", "busy", "stats", "up")

    def __init__(
        self,
        sched: "Scheduler",
        src: "Node",
        dst: "Node",
        bandwidth: float,
        delay: float,
        queue: Optional[DropTailQueue] = None,
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.sched = sched
        self.src = src
        self.dst = dst
        self.bandwidth = float(bandwidth)
        self.delay = float(delay)
        self.queue = queue if queue is not None else DropTailQueue()
        self.busy = False
        self.stats = LinkStats()
        self.up = True

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Offer a packet for transmission.

        Returns True if the packet was accepted (immediately transmitted or
        queued) and False if it was dropped.  A downed link silently drops.
        """
        if not self.up:
            self.queue.stats.dropped += 1
            self.queue.stats.bytes_dropped += pkt.size
            self._emit_drop(pkt, DROP_LINK_DOWN)
            return False
        if self.busy:
            accepted = self.queue.push(pkt)
            if not accepted:
                self._emit_drop(pkt, DROP_QUEUE_FULL)
            return accepted
        self._start_transmit(pkt)
        return True

    def _emit_drop(self, pkt: Packet, reason: str) -> None:
        bus = self.sched.bus
        if bus is not None:
            bus.emit(
                "link.drop", self.sched.now,
                link=f"{self.src.name}->{self.dst.name}",
                reason=reason, kind=pkt.kind, size=pkt.size,
            )

    def _start_transmit(self, pkt: Packet) -> None:
        self.busy = True
        tx_time = pkt.size * 8.0 / self.bandwidth
        self.stats.busy_time += tx_time
        sched = self.sched
        sched.at(sched.now + tx_time, self._tx_done, pkt)

    def _tx_done(self, pkt: Packet, lost: bool = False) -> None:
        """Serialization finished; ``lost`` = the medium ate the packet
        (wireless), so the airtime is charged but nothing propagates."""
        sched = self.sched
        now = sched.now
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += pkt.size
        stats.last_tx_end = now
        if not lost:
            # Propagation: the receiver sees the packet ``delay`` seconds
            # after the last bit leaves the transmitter.
            sched.at(now + self.delay, self.dst.receive, pkt, self)
        nxt = self.queue.pop()
        if nxt is not None:
            self._start_transmit(nxt)
        else:
            self.busy = False

    # ------------------------------------------------------------------
    def set_down(self) -> None:
        """Take the link down: queued and future packets are dropped."""
        self.up = False
        stats = self.queue.stats
        flushed = 0
        while True:
            pkt = self.queue.pop()
            if pkt is None:
                break
            # Flushed packets were accepted earlier but never transmitted;
            # account them as drops so loss metrics see the outage.
            stats.dequeued -= 1
            stats.dropped += 1
            stats.bytes_dropped += pkt.size
            flushed += 1
        bus = self.sched.bus
        if bus is not None:
            bus.emit(
                "link.down", self.sched.now,
                link=f"{self.src.name}->{self.dst.name}", flushed=flushed,
            )

    def set_up(self) -> None:
        """Bring the link back up."""
        self.up = True
        bus = self.sched.bus
        if bus is not None:
            bus.emit(
                "link.up", self.sched.now,
                link=f"{self.src.name}->{self.dst.name}",
                utilization=self.stats.utilization(max(self.sched.now, 1e-9)),
            )

    def set_bandwidth(self, bandwidth: float) -> None:
        """Change the link capacity (fault injection: degradation/restore).

        Takes effect for the next packet to start serializing; the packet
        currently on the wire finishes at the old rate.
        """
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.bandwidth = float(bandwidth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.src.name}->{self.dst.name} "
            f"{self.bandwidth / 1e3:.0f}Kbps {self.delay * 1e3:.0f}ms>"
        )
