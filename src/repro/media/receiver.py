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

A group's packets are counted once per node, by the group's only handler
there (:class:`_GroupCounter`); each receiver on the node reads its own
counts as offsets into that counter, exactly as if it counted every packet
itself.
"""

from __future__ import annotations

from inspect import unwrap
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


class _GroupCounter:
    """One group's receive counter at one node, and the group's only
    handler there: a packet costs one call per node, however many of the
    node's receivers subscribe to its layer.

    It counts what a receiver subscribed since the counter was made would
    count: packets, bytes, sequence-gap loss and the next expected sequence
    number.  Each subscribed layer of each receiver (:class:`_LayerRx`)
    reads its own counts as differences from offsets it took, so its counts
    are exactly those a per-receiver handler would keep:

    * a layer that joined waits in ``pending`` and anchors at its first
      packet, where a receiver counts no loss (it has no expectation yet);
    * if that packet arrived out of order at the node (its sequence number
      below the node's expectation), the layer expects less than the node
      does and would count gaps the node does not.  It stays in
      ``catching``, accounted packet by packet, until its expectation
      catches up with the node's.

    The counter is made on the group's first subscribed layer at the node
    and dropped, with its state, when the last one leaves.
    """

    __slots__ = ("group", "count", "bytes", "lost", "expected", "layers", "pending",
                 "catching")

    def __init__(self, group: int):
        self.group = group
        self.count = 0
        self.bytes = 0
        self.lost = 0
        self.expected: Optional[int] = None
        #: Subscribed layers of this node's receivers that read this counter.
        self.layers = 0
        self.pending: List["_LayerRx"] = []
        self.catching: List["_LayerRx"] = []

    @staticmethod
    def of(node: Node, group: int) -> "_GroupCounter":
        """The counter of ``group`` at ``node``, made and installed as its
        handler if there is none.  A profiler may have wrapped the installed
        handler; a wrapper names what it wraps as ``__wrapped__``."""
        for handler in node.group_handlers.get(group, ()):
            found = unwrap(handler)
            if type(found) is _GroupCounter:
                return found
        counter = _GroupCounter(group)
        node.add_group_handler(group, counter)
        return counter

    def __call__(self, pkt: Packet) -> None:
        """The data path: account one packet of this group at this node."""
        seq = pkt.seq
        expected = self.expected
        if expected is None:
            self.expected = seq + 1
        elif seq >= expected:
            self.lost += seq - expected
            self.expected = seq + 1
        # seq < expected is a duplicate or a reordered packet: a plain receive.
        self.count += 1
        self.bytes += pkt.size
        if self.catching:
            self._catch_up(seq, expected)
        if self.pending:
            self._anchor(seq)

    def _catch_up(self, seq: int, node_expected: Optional[int]) -> None:
        """Account ``seq`` for each layer whose expectation lags the node's
        (``node_expected``, the node's before ``seq``; never None here, as a
        layer lags only after the counter has seen a packet): shift its loss
        offset by what it counts minus what the node did."""
        for lr in tuple(self.catching):
            if seq >= lr.expected:
                node_gap = (seq - node_expected
                            if node_expected is not None and seq >= node_expected else 0)
                lr.base_lost += node_gap - (seq - lr.expected)
                lr.expected = seq + 1
                if lr.expected == self.expected:
                    self.catching.remove(lr)

    def _anchor(self, seq: int) -> None:
        """``seq`` is the first packet of every pending layer: it counts no
        loss for them, and it fires their receivers' first-packet probes."""
        pending, self.pending = self.pending, []
        for lr in pending:
            lr.base_lost = self.lost
            if seq + 1 != self.expected:
                lr.expected = seq + 1
                self.catching.append(lr)
            rx = lr.rx
            if rx._awaiting_first:
                rx._awaiting_first = False
                rx.on_first_packet(rx.sched.now)

    def add(self, lr: "_LayerRx") -> None:
        """``lr`` joined: it waits for its first packet."""
        self.layers += 1
        self.pending.append(lr)

    def remove(self, lr: "_LayerRx", node: Node) -> None:
        """``lr`` left; the last layer to leave uninstalls the counter."""
        if lr in self.pending:
            self.pending.remove(lr)
        elif lr in self.catching:
            self.catching.remove(lr)
        self.layers -= 1
        if not self.layers:
            node.remove_group_handler(self.group, self)


class _LayerRx:
    """Receive state of one subscribed layer of one receiver.

    One exists only while its layer is subscribed: joining a layer makes a
    fresh one (so a rejoin starts from zeroed counts and no sequence
    expectation) and leaving drops it.  Its counts since the last report
    are its node's :class:`_GroupCounter` minus the ``base_*`` offsets;
    ``expected`` is its own sequence expectation only while it catches up
    with the node's."""

    __slots__ = ("rx", "counter", "joined_at", "base_count", "base_bytes", "base_lost",
                 "expected")

    def __init__(self, rx: "LayeredReceiver", counter: _GroupCounter):
        self.rx = rx
        self.counter = counter
        self.joined_at = 0.0  # effective (post-graft) time, set on join
        self.base_count = counter.count
        self.base_bytes = counter.bytes
        self.base_lost = counter.lost
        #: Its own sequence expectation, read only while it catches up.
        self.expected = 0
        counter.add(self)

    def reset_counts(self) -> None:
        counter = self.counter
        self.base_count = counter.count
        self.base_bytes = counter.bytes
        self.base_lost = counter.lost


class LayeredReceiver:
    """A receiver host application for one layered session."""

    __slots__ = ("node", "sched", "session_id", "schedule", "mcast", "receiver_id",
                 "groups", "layers", "level", "trace", "loss_series", "_interval_start",
                 "_settled_bytes", "on_first_packet", "_awaiting_first")

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
        #: Bytes of the intervals already reported and of the layers left
        #: since (see :attr:`total_bytes`).
        self._settled_bytes = 0
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
        group = self.groups[len(self.layers)]
        lr = _LayerRx(self, _GroupCounter.of(self.node, group))
        lr.joined_at = self.mcast.join(group, self.node.name)
        self.layers.append(lr)

    def _leave_layer(self) -> None:
        """Unsubscribe the top layer.  Its counts go with it: packets
        counted since the last report must not leak into a later report
        (they would read as phantom loss)."""
        lr = self.layers.pop()
        counter = lr.counter
        self._settled_bytes += counter.bytes - lr.base_bytes
        counter.remove(lr, self.node)
        self.mcast.leave(counter.group, self.node.name)

    @property
    def total_bytes(self) -> int:
        """Bytes received over the receiver's whole life, every layer."""
        return self._settled_bytes + sum(lr.counter.bytes - lr.base_bytes for lr in self.layers)

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
            counter = lr.counter
            layer_received = counter.count - lr.base_count
            bytes_ += counter.bytes - lr.base_bytes
            received += layer_received
            lost += counter.lost - lr.base_lost
            if layer_received == 0 and dt > 0 and lr.joined_at <= t0:
                # Silence: subscribed the whole interval, nothing arrived.
                lost += self.schedule.rate(idx + 1) * dt / bits_per_packet
            lr.reset_counts()
        self._interval_start = now
        self._settled_bytes += bytes_
        stats = IntervalStats(t0, now, bytes_, received, lost, self.level)
        self.loss_series.record(now, stats.loss_rate)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LayeredReceiver {self.receiver_id!r} session={self.session_id} "
            f"level={self.level}>"
        )
