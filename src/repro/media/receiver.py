"""Layered media receiver.

A :class:`LayeredReceiver` subscribes to a prefix of a session's layers by
joining/leaving their multicast groups, detects losses from sequence-number
gaps (per layer), and produces the per-interval statistics the paper's
receivers report to the controller agent: packet loss rate and bytes
received (§III "the agent gathers packet loss information and the number of
bytes received at each receiver").

Loss accounting details:

* Within a joined layer, a jump in sequence numbers counts the gap as lost.
* A layer that was subscribed for an entire reporting interval but delivered
  *zero* packets is assumed fully lost at its advertised rate ("silence
  detection") — without this, total upstream starvation would masquerade as
  0 % loss.
* Leaving a layer resets its sequence tracking, so rejoining later does not
  count the missed span as loss.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..multicast.manager import MulticastManager
from ..simnet.node import Node
from ..simnet.packet import DEFAULT_PACKET_SIZE, Packet
from ..simnet.tracing import SeriesTrace, StepTrace
from .layers import LayerSchedule

__all__ = ["IntervalStats", "LayeredReceiver"]


class IntervalStats:
    """Statistics for one reporting interval at one receiver."""

    __slots__ = ("t0", "t1", "bytes", "received", "lost", "level")

    def __init__(self, t0: float, t1: float, bytes_: int, received: int, lost: float, level: int):
        self.t0 = t0
        self.t1 = t1
        self.bytes = bytes_
        self.received = received
        self.lost = lost
        self.level = level

    @property
    def loss_rate(self) -> float:
        """Fraction of expected packets lost in the interval (0 if idle)."""
        expected = self.received + self.lost
        return self.lost / expected if expected else 0.0

    @property
    def bandwidth(self) -> float:
        """Received goodput over the interval, bits/s."""
        dt = self.t1 - self.t0
        return self.bytes * 8.0 / dt if dt > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<IntervalStats [{self.t0:.1f},{self.t1:.1f}] level={self.level} "
            f"loss={self.loss_rate:.3f} bw={self.bandwidth / 1e3:.0f}Kbps>"
        )


class _LayerRx:
    """Receive state of one subscribed layer, and that layer's group handler.

    One exists only while its layer is subscribed: joining a layer makes a
    fresh one (so a rejoin starts from zeroed counters and no sequence
    expectation) and leaving drops it."""

    __slots__ = ("rx", "group", "expected", "received", "lost", "bytes", "joined_at")

    def __init__(self, rx: "LayeredReceiver", group: int):
        self.rx = rx
        self.group = group
        self.expected: Optional[int] = None
        self.received = 0
        self.lost = 0
        self.bytes = 0
        self.joined_at = 0.0  # effective (post-graft) time, set on join

    def __call__(self, pkt: Packet) -> None:
        """The data path: account one packet of this layer."""
        rx = self.rx
        if rx._awaiting_first:
            rx._awaiting_first = False
            rx.on_first_packet(rx.sched.now)
        seq = pkt.seq
        if self.expected is None:
            self.expected = seq + 1
        elif seq >= self.expected:
            self.lost += seq - self.expected
            self.expected = seq + 1
        # seq < expected would be a duplicate/reorder; our FIFO links cannot
        # produce one, but tolerate it as a plain receive.
        self.received += 1
        self.bytes += pkt.size
        rx.total_bytes += pkt.size

    def reset_counts(self) -> None:
        self.received = 0
        self.lost = 0
        self.bytes = 0


class LayeredReceiver:
    """A receiver host application for one layered session."""

    __slots__ = ("node", "sched", "session_id", "schedule", "mcast", "receiver_id",
                 "groups", "layers", "level", "trace", "loss_series", "_interval_start",
                 "total_bytes", "on_first_packet", "_awaiting_first")

    #: Bytes per data packet (paper: 1000).
    packet_size = DEFAULT_PACKET_SIZE

    def __init__(
        self,
        node: Node,
        session_id: int,
        groups: Sequence[int],
        schedule: LayerSchedule,
        mcast: MulticastManager,
        receiver_id: Optional[Any] = None,
        initial_level: int = 1,
    ):
        if len(groups) != schedule.n_layers:
            raise ValueError("need one group per layer")
        if not 0 <= initial_level <= schedule.n_layers:
            raise ValueError(f"initial level out of range: {initial_level}")
        self.node = node
        self.sched = node.sched
        self.session_id = session_id
        self.schedule = schedule
        self.mcast = mcast
        self.receiver_id = receiver_id if receiver_id is not None else node.name
        #: The session's group per layer, base layer first.
        self.groups = groups
        #: One entry per subscribed layer, base layer first: subscription
        #: is always a prefix, so this is a stack of ``level`` entries.
        self.layers: List[_LayerRx] = []
        self.level = 0
        self.trace = StepTrace(t0=self.sched.now, v0=0)
        self.loss_series = SeriesTrace()
        self._interval_start = self.sched.now
        self.total_bytes = 0
        #: Optional probe ``callable(sim_time)`` fired on the first packet
        #: after a 0 -> up subscription (workload join-to-first-packet
        #: latency).  Armed in :meth:`set_level`, disarmed after one shot.
        self.on_first_packet = None
        self._awaiting_first = False
        if initial_level:
            self.set_level(initial_level)

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def set_level(self, level: int) -> None:
        """Join/leave layer groups so that layers ``1..level`` are subscribed."""
        if not 0 <= level <= self.schedule.n_layers:
            raise ValueError(f"level out of range: {level}")
        if level == self.level:
            return
        previous = self.level
        if level > self.level:
            for _ in range(self.level, level):
                self._join_layer()
        else:
            for _ in range(level, self.level):
                self._leave_layer()
        self.level = level
        self.trace.record(self.sched.now, level)
        if previous == 0 and self.on_first_packet is not None:
            self._awaiting_first = True
        elif level == 0:
            self._awaiting_first = False
        bus = self.sched.bus
        if bus is not None:
            bus.emit(
                "recv.join" if level > previous else "recv.leave", self.sched.now,
                receiver=self.receiver_id, session=self.session_id,
                level=level, previous=previous,
            )

    def add_layer(self) -> bool:
        """Subscribe one more layer; returns False if already at the top."""
        if self.level >= self.schedule.n_layers:
            return False
        self.set_level(self.level + 1)
        return True

    def drop_layer(self) -> bool:
        """Unsubscribe the top layer; returns False if already at level 0."""
        if self.level <= 0:
            return False
        self.set_level(self.level - 1)
        return True

    def _join_layer(self) -> None:
        """Subscribe the layer above the current top one."""
        lr = _LayerRx(self, self.groups[len(self.layers)])
        self.node.add_group_handler(lr.group, lr)
        lr.joined_at = self.mcast.join(lr.group, self.node.name)
        self.layers.append(lr)

    def _leave_layer(self) -> None:
        """Unsubscribe the top layer.  Its counters go with it: packets
        counted since the last report must not leak into a later report
        (they would read as phantom loss)."""
        lr = self.layers.pop()
        self.node.remove_group_handler(lr.group, lr)
        self.mcast.leave(lr.group, self.node.name)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def interval_stats(self) -> IntervalStats:
        """Collect and reset counters for the interval since the last call."""
        now = self.sched.now
        t0 = self._interval_start
        dt = now - t0
        bytes_ = 0
        received = 0
        lost = 0.0
        bits_per_packet = self.packet_size * 8.0
        for idx, lr in enumerate(self.layers):
            bytes_ += lr.bytes
            received += lr.received
            lost += lr.lost
            if lr.received == 0 and dt > 0 and lr.joined_at <= t0:
                # Silence: subscribed the whole interval, nothing arrived.
                lost += self.schedule.rate(idx + 1) * dt / bits_per_packet
            lr.reset_counts()
        self._interval_start = now
        stats = IntervalStats(t0, now, bytes_, received, lost, self.level)
        self.loss_series.record(now, stats.loss_rate)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LayeredReceiver {self.receiver_id!r} session={self.session_id} "
            f"level={self.level}>"
        )
