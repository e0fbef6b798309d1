"""Unit tests for the layered receiver (loss detection, reporting)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.media.layers import LayerSchedule
from repro.media.receiver import IntervalStats, LayeredReceiver
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.packet import Packet
from repro.simnet.topology import Network

pytestmark = pytest.mark.usefixtures("no_igmp_delay")


def setup(n_layers=3, initial_level=0):
    sched = Scheduler()
    net = Network(sched)
    net.add_node("src")
    net.add_node("rcv")
    net.add_link("src", "rcv", bandwidth=10e6, delay=0.01)
    net.build_routes()
    mcast = MulticastManager(net, leave_latency=0.1)
    schedule = LayerSchedule(n_layers=n_layers, base_rate=32_000)
    groups = [mcast.create_group("src") for _ in range(n_layers)]
    rcv = LayeredReceiver(
        net.node("rcv"), 1, groups, schedule, mcast, initial_level=initial_level
    )
    return sched, net, mcast, groups, rcv


def send(net, group, seq, size=1000):
    net.node("src").send(Packet(src="src", group=group, seq=seq, size=size))


def test_initial_level_joins_groups():
    sched, net, mcast, groups, rcv = setup(initial_level=2)
    sched.run(until=1.0)
    assert mcast.members(groups[0]) == frozenset({"rcv"})
    assert mcast.members(groups[1]) == frozenset({"rcv"})
    assert mcast.members(groups[2]) == frozenset()
    assert rcv.level == 2


def test_set_level_up_and_down():
    sched, net, mcast, groups, rcv = setup()
    rcv.set_level(3)
    sched.run(until=1.0)
    assert all(mcast.members(g) == frozenset({"rcv"}) for g in groups)
    rcv.set_level(1)
    sched.run(until=2.0)
    assert mcast.members(groups[0]) == frozenset({"rcv"})
    assert mcast.members(groups[1]) == frozenset()
    assert mcast.members(groups[2]) == frozenset()


def test_set_level_same_is_noop():
    sched, net, mcast, groups, rcv = setup(initial_level=1)
    trace_len = len(rcv.trace)
    rcv.set_level(1)
    assert len(rcv.trace) == trace_len


def test_level_validation():
    sched, net, mcast, groups, rcv = setup()
    with pytest.raises(ValueError):
        rcv.set_level(-1)
    with pytest.raises(ValueError):
        rcv.set_level(4)


def test_add_drop_layer_helpers():
    sched, net, mcast, groups, rcv = setup(initial_level=1)
    assert rcv.add_layer() is True
    assert rcv.level == 2
    rcv.set_level(3)
    assert rcv.add_layer() is False
    assert rcv.drop_layer() is True
    assert rcv.level == 2
    rcv.set_level(0)
    assert rcv.drop_layer() is False


def test_packets_counted():
    sched, net, mcast, groups, rcv = setup(initial_level=1)
    sched.run(until=1.0)
    for seq in range(5):
        send(net, groups[0], seq)
    sched.run(until=2.0)
    stats = rcv.interval_stats()
    assert stats.received == 5
    assert stats.lost == 0
    assert stats.bytes == 5000
    assert stats.loss_rate == 0.0


def test_gap_detection():
    sched, net, mcast, groups, rcv = setup(initial_level=1)
    sched.run(until=1.0)
    for seq in [0, 1, 4, 5, 9]:  # gaps: 2,3 and 6,7,8 -> 5 lost
        send(net, groups[0], seq)
    sched.run(until=2.0)
    stats = rcv.interval_stats()
    assert stats.received == 5
    assert stats.lost == 5
    assert stats.loss_rate == pytest.approx(0.5)


def test_first_packet_sets_baseline():
    """Joining mid-stream must not count the missed prefix as loss."""
    sched, net, mcast, groups, rcv = setup(initial_level=1)
    sched.run(until=1.0)
    send(net, groups[0], 1000)
    send(net, groups[0], 1001)
    sched.run(until=2.0)
    stats = rcv.interval_stats()
    assert stats.received == 2
    assert stats.lost == 0


def test_interval_stats_resets_counters():
    sched, net, mcast, groups, rcv = setup(initial_level=1)
    sched.run(until=1.0)
    send(net, groups[0], 0)
    sched.run(until=2.0)
    first = rcv.interval_stats()
    assert first.received == 1
    second = rcv.interval_stats()
    assert second.received == 0
    assert second.bytes == 0


def test_silence_detected_as_loss():
    sched, net, mcast, groups, rcv = setup(initial_level=1)
    sched.run(until=1.0)
    rcv.interval_stats()  # open a fresh interval at t=1
    sched.run(until=11.0)  # 10 s of silence while subscribed
    stats = rcv.interval_stats()
    assert stats.received == 0
    # Base layer at 32 Kb/s = 4 pkt/s -> ~40 packets presumed lost.
    assert stats.lost == pytest.approx(40.0)
    assert stats.loss_rate == 1.0


def test_no_silence_loss_when_just_joined():
    """A layer joined mid-interval must not be silence-penalized."""
    sched, net, mcast, groups, rcv = setup(initial_level=0)
    sched.run(until=1.0)
    rcv.interval_stats()
    sched.run(until=5.0)
    rcv.set_level(1)  # joined at t=5, interval started at t=1
    sched.run(until=6.0)
    stats = rcv.interval_stats()
    assert stats.lost == 0


def test_rejoin_resets_sequence_tracking():
    sched, net, mcast, groups, rcv = setup(initial_level=1)
    sched.run(until=1.0)
    send(net, groups[0], 10)
    sched.run(until=2.0)
    rcv.set_level(0)
    sched.run(until=3.0)
    rcv.set_level(1)
    sched.run(until=4.0)
    rcv.interval_stats()
    send(net, groups[0], 500)  # big jump across the unsubscribed span
    sched.run(until=5.0)
    stats = rcv.interval_stats()
    assert stats.lost == 0
    assert stats.received == 1


def test_multi_layer_aggregation():
    sched, net, mcast, groups, rcv = setup(initial_level=2)
    sched.run(until=1.0)
    rcv.interval_stats()
    send(net, groups[0], 0)
    send(net, groups[1], 0)
    send(net, groups[1], 2)  # one lost on layer 2
    sched.run(until=2.0)
    stats = rcv.interval_stats()
    assert stats.received == 3
    assert stats.lost == 1
    assert stats.bytes == 3000


def test_trace_records_level_changes():
    sched, net, mcast, groups, rcv = setup(initial_level=1)
    sched.run(until=10.0)
    rcv.set_level(2)
    sched.run(until=20.0)
    rcv.set_level(1)
    assert rcv.trace.value_at(5.0) == 1
    assert rcv.trace.value_at(15.0) == 2
    assert rcv.trace.value_at(25.0) == 1
    # The creation-time 0->1 collapses into the initial point; two changes remain.
    assert rcv.trace.num_changes() == 2


def test_bandwidth_property():
    stats = IntervalStats(t0=0.0, t1=2.0, bytes_=4000, received=4, lost=0.0, level=1)
    assert stats.bandwidth == pytest.approx(16_000.0)
    empty = IntervalStats(0.0, 0.0, 0, 0, 0.0, 0)
    assert empty.bandwidth == 0.0
    assert empty.loss_rate == 0.0


def test_group_count_mismatch_rejected():
    sched = Scheduler()
    net = Network(sched)
    net.add_node("rcv")
    mcast = MulticastManager(net, leave_latency=2.0)
    schedule = LayerSchedule(n_layers=3)
    with pytest.raises(ValueError):
        LayeredReceiver(net.node("rcv"), 1, [1, 2], schedule, mcast)


def test_initial_level_out_of_range():
    sched = Scheduler()
    net = Network(sched)
    net.add_node("rcv")
    mcast = MulticastManager(net, leave_latency=2.0)
    schedule = LayerSchedule(n_layers=2)
    groups = [mcast.create_group("rcv"), mcast.create_group("rcv")]
    with pytest.raises(ValueError):
        LayeredReceiver(net.node("rcv"), 1, groups, schedule, mcast, initial_level=5)


def test_loss_series_recorded():
    sched, net, mcast, groups, rcv = setup(initial_level=1)
    sched.run(until=1.0)
    rcv.interval_stats()
    sched.run(until=2.0)
    rcv.interval_stats()
    assert len(rcv.loss_series) == 2


# ----------------------------------------------------------------------
# Layer state as a stack: oracle against one state per layer
# ----------------------------------------------------------------------
class _FixedLayersReceiver:
    """The receiver as it was before its layer state became a stack: one
    state per layer for the whole run, reset on every join and leave, with
    a closure per joined layer as its group handler."""

    def __init__(self, node, groups, schedule, mcast):
        self.node, self.sched, self.schedule, self.mcast = node, node.sched, schedule, mcast
        self.layers = [dict(group=g, expected=None, received=0, lost=0, bytes=0,
                            joined_at=None, handler=None) for g in groups]
        self.level = 0
        self.interval_start = self.sched.now

    def set_level(self, level):
        for idx in range(self.level, level):
            lr = self.layers[idx]

            def handler(pkt, lr=lr):
                self._on_packet(pkt, lr)

            lr["handler"] = handler
            self.node.add_group_handler(lr["group"], handler)
            lr["joined_at"] = self.mcast.join(lr["group"], self.node.name)
            lr.update(expected=None, received=0, lost=0, bytes=0)
        for idx in range(self.level - 1, level - 1, -1):
            lr = self.layers[idx]
            self.node.remove_group_handler(lr["group"], lr["handler"])
            self.mcast.leave(lr["group"], self.node.name)
            lr.update(handler=None, joined_at=None, expected=None, received=0, lost=0, bytes=0)
        self.level = level

    def _on_packet(self, pkt, lr):
        if lr["expected"] is None:
            lr["expected"] = pkt.seq + 1
        elif pkt.seq >= lr["expected"]:
            lr["lost"] += pkt.seq - lr["expected"]
            lr["expected"] = pkt.seq + 1
        lr["received"] += 1
        lr["bytes"] += pkt.size

    def interval_stats(self):
        now, t0 = self.sched.now, self.interval_start
        dt = now - t0
        bytes_, received, lost = 0, 0, 0.0
        for idx, lr in enumerate(self.layers[: self.level]):
            bytes_ += lr["bytes"]
            received += lr["received"]
            lost += lr["lost"]
            if (lr["received"] == 0 and dt > 0 and lr["joined_at"] is not None
                    and lr["joined_at"] <= t0):
                lost += self.schedule.rate(idx + 1) * dt / (LayeredReceiver.packet_size * 8.0)
            lr.update(received=0, lost=0, bytes=0)
        self.interval_start = now
        return (t0, now, bytes_, received, lost, self.level)


#: One round of a receiver's life: a new level, a few packets a little
#: later (each after skipping some sequence numbers, which reads as loss),
#: time passing, and maybe a report.
ROUNDS = st.tuples(
    st.integers(0, 4),
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0, 0, 1, 3])), max_size=6),
    st.sampled_from([0.05, 0.3, 1.5, 4.0]),
    st.booleans(),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(ROUNDS, min_size=1, max_size=12))
def test_random_level_changes_match_one_state_per_layer(rounds):
    """Two receivers behind identical links see the same packets: the real
    one and :class:`_FixedLayersReceiver`.  After every step the real one
    holds state for exactly its subscribed layers, and the node's handler
    for each subscribed group is that layer's counter and nothing else; a
    group nobody subscribes has no handler, so a rejoined layer gets a
    fresh counter with no expectation; and every report, silence detection
    included, equals the reference's."""
    sched = Scheduler()
    net = Network(sched)
    for name in ("src", "rcv", "ref"):
        net.add_node(name)
    net.add_link("src", "rcv", bandwidth=10e6, delay=0.01)
    net.add_link("src", "ref", bandwidth=10e6, delay=0.01)
    net.build_routes()
    mcast = MulticastManager(net, leave_latency=0.1)
    schedule = LayerSchedule(n_layers=4, base_rate=32_000)
    groups = [mcast.create_group("src") for _ in range(4)]
    rcv = LayeredReceiver(net.node("rcv"), 1, groups, schedule, mcast, initial_level=0)
    ref = _FixedLayersReceiver(net.node("ref"), groups, schedule, mcast)
    handlers = net.node("rcv").group_handlers
    next_seq = [0] * 4
    reports = []

    def check():
        assert len(rcv.layers) == rcv.level
        assert [handlers.get(g, ()) for g in groups] == (
            [(lr.counter,) for lr in rcv.layers] + [()] * (4 - rcv.level))

    for level, packets, dt, report in rounds:
        before = rcv.level
        rcv.set_level(level)
        ref.set_level(level)
        for lr in rcv.layers[before:]:
            assert (lr.counter.expected, lr.counter.count, lr.counter.lost) == (None, 0, 0)
        check()
        sched.run(until=sched.now + 0.05)  # past the grafts
        for layer, skip in packets:
            next_seq[layer] += skip
            send(net, groups[layer], next_seq[layer])
            next_seq[layer] += 1
        sched.run(until=sched.now + dt)
        if report:
            got = rcv.interval_stats()
            reports.append(ref.interval_stats())
            assert (got.t0, got.t1, got.bytes, got.received, got.lost, got.level) == reports[-1]
        check()
    assert len(rcv.loss_series) == len(reports)
