"""Point-to-point links with serialization delay, propagation delay and a
bounded FIFO.

A :class:`Link` is unidirectional; :meth:`repro.simnet.topology.Network.add_link`
creates one in each direction.  The transmit path models store-and-forward:

* if the transmitter is idle, a packet starts serializing immediately
  (``size * 8 / bandwidth`` seconds);
* otherwise the link's queue discipline decides, from the number of packets
  already waiting (and, for RED's average, the link's idle time so far),
  whether it joins the FIFO (drop-tail or RED, see
  :mod:`repro.simnet.queues`);
* after serialization the packet propagates for ``delay`` seconds and is
  delivered to the destination node.

A FIFO link of fixed bandwidth is a deterministic function of its offer
times, so nothing is simulated between an offer and its arrival: ``send``
computes when the packet's serialization ends (the previous accepted
packet's end, or now, plus its own serialization time — the float sums an
event per serialization would make) and books **one** scheduler event, the
arrival at ``end + delay``.  Packets not yet settled wait in the link's FIFO,
the one place a waiting packet is held; the transmit counters,
``busy_time`` and the FIFO are brought up to ``now`` whenever link state is
read (``send`` itself, :attr:`Link.stats`, :attr:`Link.drops`,
:attr:`Link.backlog`, :attr:`Link.busy`).  A serialization that ends at
``t`` has completed before anything else the link does at ``t``.

Every drop is counted once, on the link, by reason (:data:`DROP_REASONS`):
the helper that emits ``link.drop`` counts it, and a downed link counts the
waiting packets it flushes.

This is the simulator's hot loop; it allocates one FIFO entry and one
scheduler event per accepted packet, and books the arrival with
``sched.at(end + delay)`` directly (``delay`` is non-negative by
construction, so ``after``'s check would be a second Python call for
nothing).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, TYPE_CHECKING

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
#: pass one of these (held by ``tests/test_source_rules.py``); free-form
#: reason strings would silently fragment downstream loss attribution.
DROP_LINK_DOWN = "link_down"
DROP_QUEUE_FULL = "queue_full"
DROP_WIRELESS = "wireless"
DROP_REASONS = (DROP_LINK_DOWN, DROP_QUEUE_FULL, DROP_WIRELESS)


class LinkStats:
    """Per-link cumulative transmit counters (drops are :attr:`Link.drops`)."""

    __slots__ = ("tx_packets", "tx_bytes", "busy_time")

    def __init__(self) -> None:
        self.tx_packets = 0
        self.tx_bytes = 0
        self.busy_time = 0.0

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
    discipline:
        Queue discipline: admits or refuses a packet offered to a busy link.
    """

    __slots__ = ("sched", "src", "dst", "bandwidth", "delay", "up", "discipline",
                 "_receive", "_stats", "_drops", "_fifo", "_idle")

    def __init__(
        self,
        sched: "Scheduler",
        src: "Node",
        dst: "Node",
        bandwidth: float,
        delay: float,
        discipline: DropTailQueue,
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.sched = sched
        self.src = src
        self.dst = dst
        #: ``dst.receive``, bound once rather than once per packet.
        self._receive = dst.receive
        self.bandwidth = float(bandwidth)
        self.delay = float(delay)
        self.up = True
        self.discipline = discipline
        self._stats = LinkStats()
        #: Drops per reason in :data:`DROP_REASONS`.
        self._drops: Dict[str, int] = dict.fromkeys(DROP_REASONS, 0)
        #: Accepted packets not yet settled, oldest first, as ``[end, pkt,
        #: tx_time, arrival entry]``.  The head is on the wire (or finished
        #: and not yet settled); the rest wait behind it.
        self._fifo: Deque[List[Any]] = deque()
        #: Seconds spent idle before the current busy period: set by each
        #: offer that finds the link idle, when every charged airtime has
        #: elapsed.
        self._idle = 0.0

    # ------------------------------------------------------------------
    # Settle-on-read views
    # ------------------------------------------------------------------
    @property
    def stats(self) -> LinkStats:
        """Transmit counters, settled to ``now``."""
        self._settle()
        return self._stats

    @property
    def drops(self) -> Dict[str, int]:
        """Packets dropped so far, per reason in :data:`DROP_REASONS`,
        settled to ``now``."""
        self._settle()
        return self._drops

    @property
    def backlog(self) -> int:
        """Packets waiting behind the one on the wire at ``now``."""
        self._settle()
        return max(len(self._fifo) - 1, 0)

    @property
    def busy(self) -> bool:
        """Whether a packet is serializing at ``now``."""
        self._settle()
        return bool(self._fifo)

    def _settle(self) -> None:
        """Complete every serialization that ended at or before ``now``: its
        packet is counted as transmitted at its end, and the next packet in
        the FIFO is charged its airtime as it starts."""
        fifo = self._fifo
        now = self.sched.now
        if not fifo or fifo[0][0] > now:
            return
        stats = self._stats
        while True:
            entry = fifo.popleft()
            stats.tx_packets += 1
            stats.tx_bytes += entry[1].size
            if not fifo:
                return
            nxt = fifo[0]
            stats.busy_time += nxt[2]
            if nxt[0] > now:
                return

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Offer a packet for transmission.

        Returns True if the packet was accepted (immediately transmitted or
        queued) and False if it was dropped.  A downed link silently drops.
        """
        if not self.up:
            self._emit_drop(pkt, DROP_LINK_DOWN)
            return False
        fifo = self._fifo
        now = self.sched.now
        if fifo and fifo[0][0] <= now:
            if len(fifo) == 1:
                # The common case: the one packet on the wire has finished.
                done = fifo.popleft()
                stats = self._stats
                stats.tx_packets += 1
                stats.tx_bytes += done[1].size
            else:
                self._settle()
        tx_time = pkt.size * 8.0 / self.bandwidth
        if fifo:
            if not self.discipline.admit(len(fifo) - 1, self._idle, tx_time):
                self._emit_drop(pkt, DROP_QUEUE_FULL)
                return False
            end = fifo[-1][0] + tx_time
        else:
            stats = self._stats
            self._idle = now - stats.busy_time
            stats.busy_time += tx_time
            end = now + tx_time
        fifo.append(self._book(end, pkt, tx_time))
        return True

    def _book(self, end: float, pkt: Packet, tx_time: float) -> List[Any]:
        """The FIFO entry of a packet whose serialization ends at ``end``,
        with its arrival booked: the receiver sees the packet ``delay``
        seconds after the last bit leaves the transmitter."""
        return [end, pkt, tx_time, self.sched.at(end + self.delay, self._receive, pkt, self)]

    def _emit_drop(self, pkt: Packet, reason: str, time: Optional[float] = None) -> None:
        """Count a drop of ``pkt`` for ``reason`` and emit ``link.drop``."""
        self._drops[reason] += 1
        bus = self.sched.bus
        if bus is not None:
            bus.emit(
                "link.drop", self.sched.now if time is None else time,
                link=f"{self.src.name}->{self.dst.name}",
                reason=reason, kind=pkt.kind, size=pkt.size,
            )

    # ------------------------------------------------------------------
    def set_down(self) -> None:
        """Take the link down: waiting and future packets are dropped.  The
        packet already serializing is still delivered."""
        self.up = False
        self._settle()
        fifo = self._fifo
        flushed = 0
        while len(fifo) > 1:
            # Flushed packets were accepted earlier but never transmitted;
            # count them as drops so loss metrics see the outage.
            self.sched.cancel(fifo.pop()[3])
            flushed += 1
        self._drops[DROP_LINK_DOWN] += flushed
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.src.name}->{self.dst.name} "
            f"{self.bandwidth / 1e3:.0f}Kbps {self.delay * 1e3:.0f}ms>"
        )
