"""Unit tests for layered CBR/VBR sources."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.media.layers import LayerSchedule
from repro.media.receiver import LayeredReceiver
from repro.media.source import CBR, VBR, LayeredSource
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.link import Link
from repro.simnet.topology import Network


def two_node_setup(n_layers=2, bandwidth=10e6):
    sched = Scheduler()
    net = Network(sched)
    net.add_node("src")
    net.add_node("dst")
    net.add_link("src", "dst", bandwidth=bandwidth, delay=0.01, queue_limit=10_000)
    net.build_routes()
    schedule = LayerSchedule(n_layers=n_layers, base_rate=32_000)
    groups = list(range(1, n_layers + 1))
    # Static forwarding: everything flows to dst.
    for g in groups:
        net.node("src").set_forwarding(g, {"dst"})
    return sched, net, schedule, groups


def collect(net, groups):
    got = {g: [] for g in groups}
    for g in groups:
        net.node("dst").add_group_handler(g, got[g].append)
    return got


def test_cbr_rate_matches_schedule():
    sched, net, schedule, groups = two_node_setup(n_layers=2)
    got = collect(net, groups)
    src = LayeredSource(net.node("src"), 1, groups, schedule, model=CBR)
    src.start()
    sched.run(until=10.0)
    # 32 Kb/s of 1000 B packets = 4 pkt/s; layer 2 = 8 pkt/s; 10 full slots.
    assert len(got[1]) == 40
    assert len(got[2]) == 80


def test_cbr_packets_evenly_spaced():
    sched, net, schedule, groups = two_node_setup(n_layers=1)
    times = []
    net.node("dst").add_group_handler(groups[0], lambda p: times.append(sched.now))
    src = LayeredSource(net.node("src"), 1, groups, schedule, model=CBR)
    src.start()
    sched.run(until=3.5)
    gaps = np.diff(times)
    assert gaps == pytest.approx([0.25] * (len(times) - 1))


def test_sequence_numbers_contiguous_per_layer():
    sched, net, schedule, groups = two_node_setup(n_layers=2)
    got = collect(net, groups)
    src = LayeredSource(net.node("src"), 1, groups, schedule, model=CBR)
    src.start()
    sched.run(until=5.5)
    for g in groups:
        seqs = [p.seq for p in got[g]]
        assert seqs == list(range(len(seqs)))


def test_packet_metadata():
    sched, net, schedule, groups = two_node_setup(n_layers=2)
    got = collect(net, groups)
    src = LayeredSource(net.node("src"), 42, groups, schedule, model=CBR)
    src.start()
    sched.run(until=1.5)
    p = got[1][0]
    assert (p.src, p.group, p.seq, p.size) == ("src", 1, 0, 1000)
    assert got[2][0].group == 2


def test_vbr_mean_rate_approximates_schedule():
    sched, net, schedule, groups = two_node_setup(n_layers=1)
    got = collect(net, groups)
    rng = np.random.default_rng(1234)
    src = LayeredSource(
        net.node("src"), 1, groups, schedule, model=VBR, peak_to_mean=3, rng=rng
    )
    src.start()
    horizon = 400
    sched.run(until=horizon + 0.5)
    mean_pps = len(got[1]) / horizon
    assert mean_pps == pytest.approx(4.0, rel=0.25)


def test_vbr_is_bursty():
    """Some slots carry the burst size P*A + 1 - P, others exactly 1 packet."""
    sched, net, schedule, groups = two_node_setup(n_layers=1)
    emitted = []  # a local handler at the source sees each packet as it is sent
    net.node("src").add_group_handler(groups[0], lambda p: emitted.append(sched.now))
    rng = np.random.default_rng(7)
    src = LayeredSource(
        net.node("src"), 1, groups, schedule, model=VBR, peak_to_mean=3, rng=rng
    )
    src.start()
    sched.run(until=100.5)
    per_slot = {}
    for t in emitted:
        per_slot.setdefault(int(t), 0)
        per_slot[int(t)] += 1
    counts = set(per_slot.values())
    # A=4, P=3: burst slots carry P*A+1-P = 10 packets, quiet slots 1.
    assert 1 in counts
    assert 10 in counts


def test_vbr_draw_distribution():
    schedule = LayerSchedule(n_layers=1, base_rate=32_000)
    sched = Scheduler()
    net = Network(sched)
    node = net.add_node("src")
    rng = np.random.default_rng(0)
    src = LayeredSource(node, 1, [1], schedule, model=VBR, peak_to_mean=6, rng=rng)
    draws = [src._draw_packets(4.0) for _ in range(6000)]
    # P=6: burst value 6*4+1-6 = 19 w.p. 1/6, else 1.
    assert set(draws) == {1, 19}
    frac_burst = draws.count(19) / len(draws)
    assert frac_burst == pytest.approx(1 / 6, abs=0.03)


def test_vbr_requires_rng():
    sched, net, schedule, groups = two_node_setup(n_layers=1)
    with pytest.raises(ValueError):
        LayeredSource(net.node("src"), 1, groups, schedule, model=VBR)


def test_invalid_model():
    sched, net, schedule, groups = two_node_setup(n_layers=1)
    with pytest.raises(ValueError):
        LayeredSource(net.node("src"), 1, groups, schedule, model="abr")


def test_peak_to_mean_must_exceed_one():
    sched, net, schedule, groups = two_node_setup(n_layers=1)
    with pytest.raises(ValueError):
        LayeredSource(
            net.node("src"), 1, groups, schedule, model=VBR,
            peak_to_mean=1.0, rng=np.random.default_rng(0),
        )


def test_group_count_must_match_layers():
    sched, net, schedule, groups = two_node_setup(n_layers=2)
    with pytest.raises(ValueError):
        LayeredSource(net.node("src"), 1, [1], schedule, model=CBR)


# ----------------------------------------------------------------------
# Unheard layers: no packet is built, every counter still moves
# ----------------------------------------------------------------------
def pinned_scenario():
    """src -> hub -> {a (100 Kb/s, lossy), b}: layers come and go.  Returns
    every counter the emit path can touch, and
    the packets each node forwarded (offers to its outgoing links, counted
    by a wrapper of ``Link.send``)."""
    forwarded = {}
    send = Link.send

    def counting_send(link, pkt):
        forwarded[link.src.name] = forwarded.get(link.src.name, 0) + 1
        return send(link, pkt)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Link, "send", counting_send)
        out = _run_pinned_scenario()
    out["forwarded"] = forwarded
    return out


def _run_pinned_scenario():
    sched = Scheduler()
    net = Network(sched)
    for name in ("src", "hub", "a", "b"):
        net.add_node(name)
    net.add_link("src", "hub", bandwidth=10e6, delay=0.01)
    net.add_link("hub", "a", bandwidth=100e3, delay=0.02, queue_limit=4)
    net.add_link("hub", "b", bandwidth=1e6, delay=0.02)
    net.build_routes()
    mcast = MulticastManager(net, leave_latency=0.5)
    schedule = LayerSchedule(n_layers=4, base_rate=32_000)
    groups = [mcast.create_group("src") for _ in range(4)]
    rng = np.random.default_rng(20010903)
    source = LayeredSource(net.node("src"), 1, groups, schedule, model=VBR,
                           peak_to_mean=3, rng=rng, phase_jitter=True)
    rx_a = LayeredReceiver(net.node("a"), 1, groups, schedule, mcast, initial_level=3)
    rx_b = LayeredReceiver(net.node("b"), 1, groups, schedule, mcast, initial_level=1)
    source.start()
    mid = {}

    def counters(rx):
        """``[expected, received, lost]`` per subscribed layer, read from the
        node's handler for the layer's group.  Each receiver is alone on its
        node and joined with the group's counter, so the counter's counts
        are the receiver's."""
        return [[c.expected, c.count, c.lost]
                for c in (rx.node.group_handlers[g][0] for g in rx.groups[:rx.level])]

    def probe():  # before the leaves drop the left layers' counters
        for name, rx in (("a", rx_a), ("b", rx_b)):
            mid[name] = counters(rx)

    sched.at(9.0, probe)
    sched.at(7.37, rx_b.set_level, 4)      # layer 4 was unheard until now
    sched.at(9.12, rx_a.set_level, 1)      # layers 2-3 stay heard through b
    sched.at(10.41, rx_b.set_level, 2)     # layers 3-4 go unheard again
    sched.run(until=15.0)
    return {
        "events": sched.events_processed,
        "senders": [s.packets_sent for s in source.senders],
        "nodes": {
            name: [getattr(node.stats, f) for f in type(node.stats).__slots__]
            for name, node in net.nodes.items()
        },
        "receivers_at_9s": mid,
        "receivers": {
            name: [rx.total_bytes] + counters(rx) for name, rx in (("a", rx_a), ("b", rx_b))
        },
        # Nothing reported before, so one report covers every subscribed
        # layer's counts since it joined.
        "reports": {
            name: [(s.received, s.lost, s.bytes) for s in [rx.interval_stats()]][0]
            for name, rx in (("a", rx_a), ("b", rx_b))
        },
    }


def test_counters_match_values_pinned_before_the_emit_fast_path():
    """Pinned at commit d2f36b9, where every emit built a Packet and went
    through ``Node.send``; NodeStats holds ``no_route``.  ``events`` alone
    was re-pinned twice: 3193 → 2579 when unheard layers were parked (614
    emits nobody heard are no longer heap entries), and 2579 → 1675 when
    links stopped scheduling an event per serialization end (904 packets
    crossed a link).  The pin moved once with no behaviour, when the
    counters only tests read went: a sender's ``next_seq`` alias and
    ``bytes_sent`` (1000 × ``packets_sent``) and NodeStats' ``received``,
    ``forwarded`` and ``delivered``.  The pinned ``forwarded`` values are
    now counted at ``Link.send``; the delivered ones were already
    ``total_bytes`` / 1000.  The scenario used to crash the source node at
    12.0; when node death left the simulator the crash left the scenario,
    and these are the counters the commit before gives without it (up to
    12 s nothing moved).  A receiver keeps counters only for the layers it
    is subscribed to, so the pins list those; the unsubscribed layers'
    ``[None, 0, 0]`` (no expectation, nothing counted) left with them.  When
    a group's packets came to be counted once per node, the per-layer pins
    came to be read from the node's counter for the group (the same values:
    each receiver is alone on its node), and ``reports`` was added: one
    report at the end, whose counts are the sums of the last pins."""
    assert pinned_scenario() == {
        "events": 1564,
        "senders": [69, 99, 240, 945],
        "nodes": {"src": [0], "hub": [0], "a": [0], "b": [0]},
        "forwarded": {"src": 547, "hub": 645},
        "receivers_at_9s": {
            "a": [[45, 23, 21], [30, 7, 21], [234, 71, 159]],
            "b": [[45, 45, 0], [30, 1, 0], [234, 27, 0], [657, 142, 0]],
        },
        "receivers": {
            "a": [124000, [68, 46, 21]],
            "b": [313000, [68, 68, 0], [99, 70, 0]],
        },
        "reports": {"a": (46, 21.0, 46000), "b": (138, 0.0, 138000)},
    }


def test_join_mid_slot_gets_the_next_packet_with_its_sequence_number():
    sched = Scheduler()
    net = Network(sched)
    net.add_node("src")
    net.add_node("dst")
    net.add_link("src", "dst", bandwidth=10e6, delay=0.01)
    schedule = LayerSchedule(n_layers=1, base_rate=32_000)  # 4 pkt/s: 0, .25, ...
    src = LayeredSource(net.node("src"), 1, [7], schedule, model=CBR)
    node = net.node("src")
    sent = []  # (seq, time) of every packet handed to the node
    node_send = node.send
    node.send = lambda p: (sent.append((p.seq, sched.now)), node_send(p))
    src.start()
    sched.run(until=1.6)
    sender = src.senders[0]
    # Seven emits nobody heard: counted, never handed to the node.
    assert sender.packets_sent == 7
    assert sent == []
    got = []
    net.node("dst").add_group_handler(7, got.append)
    node.set_forwarding(7, {"dst"})  # grafted in the middle of slot 1
    sched.run(until=1.8)
    assert sent == [(7, 1.75)]
    assert [p.seq for p in got] == [7]
    # A local handler alone (no forwarding entry) is heard as well.
    net.node("src").set_forwarding(7, None)
    local = []
    net.node("src").add_group_handler(7, local.append)
    sched.run(until=2.1)
    assert [p.seq for p in local] == [8]
    assert [p.seq for p in got] == [7]


def test_tie_an_emit_due_at_the_graft_instant_is_heard():
    """DESIGN §7: for a parked train an emit is already due when its time is
    strictly before ``now``.  CBR without jitter puts emits on 0, .25, ...:
    a graft at exactly 0.5 hears the 0.5 emit, a read at 0.5 does not count
    it yet."""
    sched = Scheduler()
    net = Network(sched)
    net.add_node("src")
    schedule = LayerSchedule(n_layers=1, base_rate=32_000)
    src = LayeredSource(net.node("src"), 1, [7], schedule, model=CBR)
    src.start()
    sched.run(until=0.5)
    sender = src.senders[0]
    assert sender.packets_sent == 2  # 0 and .25; the .5 emit is not due yet
    local = []  # (seq, time) of each local delivery, which is the emit
    net.node("src").add_group_handler(7, lambda p: local.append((p.seq, sched.now)))
    assert sender.packets_sent == 2  # woken: .5 and .75 are heap entries now
    sched.run(until=0.5)
    assert local == [(2, 0.5)]
    sched.run(until=0.99)
    assert local == [(2, 0.5), (3, 0.75)]
    assert sender.packets_sent == 4


def test_a_source_nobody_hears_costs_one_event_per_slot():
    sched = Scheduler()
    net = Network(sched)
    net.add_node("src")
    schedule = LayerSchedule(n_layers=4, base_rate=32_000)  # 4, 8, 16, 32 pkt/s
    src = LayeredSource(net.node("src"), 1, [1, 2, 3, 4], schedule, model=CBR)
    src.start()
    sched.run(until=99.999)  # 100 whole slots; slot 101 starts at 100.0
    assert sched.events_processed == 100
    assert sched.pending == 1  # the next slot boundary, and not one emit
    assert [s.packets_sent for s in src.senders] == [400, 800, 1600, 3200]
    # Mid-slot reads settle nothing: the same question twice, the same answer.
    sched.run(until=100.6)
    assert [s.packets_sent for s in src.senders] == [403, 805, 1610, 3220]
    assert [s.packets_sent for s in src.senders] == [403, 805, 1610, 3220]
    assert sched.events_processed == 101


def test_forwarding_entries_are_written_only_in_node_py():
    """A parked layer is woken by ``Node.set_forwarding``; a forwarding entry
    written any other way under src/repro would leave it asleep."""
    src_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    write = re.compile(r"mcast_fwd(\[.*\]\s*=[^=]|\.(pop|clear|update|setdefault)\()|del .*mcast_fwd")
    offenders = [
        f"{path.relative_to(src_root)}:{lineno}"
        for path in sorted(src_root.rglob("*.py"))
        if path.relative_to(src_root).as_posix() != "simnet/node.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if write.search(line)
    ]
    assert offenders == []
