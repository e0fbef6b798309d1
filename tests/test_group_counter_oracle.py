"""Per-node group counters against one handler per receiver and layer.

A group's packets are counted once per node (``media/receiver.py``'s
``_GroupCounter``), and each subscribed layer of each receiver reads its
counts as offsets into that counter.  This oracle holds the result to the
per-receiver rule it replaced: :class:`_PerReceiverReference` below is the
receiver as it was before, one handler per subscribed layer that counts
every packet it hears.

Three real receivers share node ``rcv`` and their three references share
node ``ref``, behind identical links from ``src``.  Generated scripts make
receivers join, leave and rejoin layers at any moment, send packets whose
sequence numbers run on, skip, repeat or go back (a reordered packet, so a
receiver's first packet after joining can arrive out of order at its node),
let intervals pass silent, and take reports.  After every step each
receiver's reports, ``total_bytes`` and first-packet probe times must equal
its reference's exactly, and the node's handler for each group must be one
counter while anyone subscribes to it and none after.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.media.layers import LayerSchedule
from repro.media.receiver import LayeredReceiver
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.packet import Packet
from repro.simnet.topology import Network

pytestmark = pytest.mark.usefixtures("no_igmp_delay")

N_RECEIVERS = 3
N_LAYERS = 3


class _PerReceiverLayer:
    """One subscribed layer of a reference receiver: its group's handler."""

    def __init__(self, rx, group):
        self.rx, self.group = rx, group
        self.expected, self.received, self.lost, self.bytes = None, 0, 0, 0
        self.joined_at = None

    def __call__(self, pkt):
        rx = self.rx
        if rx.awaiting_first:
            rx.awaiting_first = False
            rx.on_first_packet(rx.sched.now)
        if self.expected is None:
            self.expected = pkt.seq + 1
        elif pkt.seq >= self.expected:
            self.lost += pkt.seq - self.expected
            self.expected = pkt.seq + 1
        self.received += 1
        self.bytes += pkt.size
        rx.total_bytes += pkt.size


class _PerReceiverReference:
    """The receiver with one group handler per subscribed layer."""

    def __init__(self, node, groups, schedule, mcast, on_first_packet):
        self.node, self.sched, self.groups = node, node.sched, groups
        self.schedule, self.mcast = schedule, mcast
        self.layers = []
        self.level = 0
        self.interval_start = self.sched.now
        self.total_bytes = 0
        self.on_first_packet = on_first_packet
        self.awaiting_first = False

    def set_level(self, level):
        if level == self.level:
            return
        previous = self.level
        for _ in range(self.level, level):
            lr = _PerReceiverLayer(self, self.groups[len(self.layers)])
            self.node.add_group_handler(lr.group, lr)
            lr.joined_at = self.mcast.join(lr.group, self.node.name)
            self.layers.append(lr)
        for _ in range(level, self.level):
            lr = self.layers.pop()
            self.node.remove_group_handler(lr.group, lr)
            self.mcast.leave(lr.group, self.node.name)
        self.level = level
        if previous == 0:
            self.awaiting_first = True
        elif level == 0:
            self.awaiting_first = False

    def interval_stats(self):
        now, t0 = self.sched.now, self.interval_start
        dt = now - t0
        bytes_, received, lost = 0, 0, 0.0
        for idx, lr in enumerate(self.layers):
            bytes_ += lr.bytes
            received += lr.received
            lost += lr.lost
            if lr.received == 0 and dt > 0 and lr.joined_at <= t0:
                lost += self.schedule.rate(idx + 1) * dt / (LayeredReceiver.packet_size * 8.0)
            lr.received, lr.lost, lr.bytes = 0, 0, 0
        self.interval_start = now
        return (t0, now, bytes_, received, lost, self.level)


#: How the next packet of a layer is numbered: the next sequence number,
#: a gap of ``k`` (read as loss), the last one again (a duplicate), or ``k``
#: below the highest sent (a reordered straggler).
SEQ_OPS = st.one_of(
    st.just(("next", 0)),
    st.tuples(st.just("skip"), st.integers(1, 4)),
    st.just(("dup", 0)),
    st.tuples(st.just("back"), st.integers(1, 6)),
)

STEPS = st.lists(st.one_of(
    st.tuples(st.just("level"), st.integers(0, N_RECEIVERS - 1), st.integers(0, N_LAYERS)),
    st.tuples(st.just("send"), st.integers(0, N_LAYERS - 1), st.lists(SEQ_OPS, max_size=6)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.02, 0.3, 1.5, 4.0])),
    st.tuples(st.just("report"), st.integers(0, N_RECEIVERS - 1)),
), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(STEPS)
def test_shared_counters_equal_one_handler_per_receiver(steps):
    sched = Scheduler()
    net = Network(sched)
    for name in ("src", "rcv", "ref"):
        net.add_node(name)
    net.add_link("src", "rcv", bandwidth=10e6, delay=0.01)
    net.add_link("src", "ref", bandwidth=10e6, delay=0.01)
    mcast = MulticastManager(net, leave_latency=0.1)
    schedule = LayerSchedule(n_layers=N_LAYERS, base_rate=32_000)
    groups = [mcast.create_group("src") for _ in range(N_LAYERS)]
    firsts = {side: [[] for _ in range(N_RECEIVERS)] for side in ("real", "ref")}
    real = []
    for i in range(N_RECEIVERS):
        rx = LayeredReceiver(net.node("rcv"), 1, groups, schedule, mcast,
                             receiver_id=f"r{i}", initial_level=0)
        rx.on_first_packet = firsts["real"][i].append
        real.append(rx)
    ref = [_PerReceiverReference(net.node("ref"), groups, schedule, mcast,
                                 firsts["ref"][i].append) for i in range(N_RECEIVERS)]
    handlers = net.node("rcv").group_handlers
    top = [-1] * N_LAYERS  # highest sequence number sent per layer
    last = [0] * N_LAYERS  # last sequence number sent per layer

    def check():
        for g in groups:
            subscribed = [lr for rx in real for lr in rx.layers if lr.counter.group == g]
            if subscribed:
                assert handlers[g] == (subscribed[0].counter,)
                assert all(lr.counter is subscribed[0].counter for lr in subscribed)
            else:
                assert g not in handlers
        assert [rx.total_bytes for rx in real] == [r.total_bytes for r in ref]
        assert firsts["real"] == firsts["ref"]

    for step in steps:
        kind = step[0]
        if kind == "level":
            _, i, level = step
            real[i].set_level(level)
            ref[i].set_level(level)
        elif kind == "send":
            _, layer, ops = step
            for op, k in ops:
                if op == "next":
                    seq = top[layer] + 1
                elif op == "skip":
                    seq = top[layer] + 1 + k
                elif op == "dup":
                    seq = last[layer]
                else:
                    seq = max(0, top[layer] - k)
                top[layer] = max(top[layer], seq)
                last[layer] = seq
                net.node("src").send(Packet(src="src", group=groups[layer], seq=seq, size=1000))
            sched.run(until=sched.now + 0.02)  # every packet sent has arrived
        elif kind == "run":
            sched.run(until=sched.now + step[1])
        else:
            i = step[1]
            got = real[i].interval_stats()
            assert (got.t0, got.t1, got.bytes, got.received, got.lost, got.level) == (
                ref[i].interval_stats())
        check()
    for i in range(N_RECEIVERS):
        got = real[i].interval_stats()
        assert (got.t0, got.t1, got.bytes, got.received, got.lost, got.level) == (
            ref[i].interval_stats())
