"""Compound receiver reports: one report packet per (node, session) per
interval.

The session's port at a node (``_SessionPort``) asks each of its agents
for a ``Report`` block, in start order, and sends one packet per controller
target with at most ``REPORT_MAX_BLOCKS`` blocks (RFC 3550 §6.4.2's 31):
``REPORT_HEADER`` plus ``REPORT_BLOCK`` per block.  The controller admits
each block through the per-receiver path, so the guard, sequence numbers
and quarantine still see every receiver on its own.
"""

import numpy as np
import pytest

from repro.baselines.static import StaticController
from repro.control.agent import ControllerAgent, ReceiverAgent, _SessionPort
from repro.control.discovery import TopologyDiscovery
from repro.control.messages import (
    CONTROL_PORT,
    REGISTER_SIZE,
    REPORT_BLOCK,
    REPORT_HEADER,
    REPORT_MAX_BLOCKS,
    Register,
    Report,
)
from repro.control.session import SessionDescriptor
from repro.experiments.scenario import Scenario
from repro.faults.plan import FaultPlan
from repro.media.layers import LayerSchedule
from repro.media.receiver import LayeredReceiver
from repro.media.source import LayeredSource
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler, _Periodic
from repro.simnet.node import Node
from repro.simnet.packet import CONTROL, Packet
from repro.simnet.topology import Network

pytestmark = pytest.mark.usefixtures("no_igmp_delay")


@pytest.fixture
def report_packets(monkeypatch):
    """``(time, src node, size, payload)`` of every report packet a node
    sends, recorded at ``Node.send``."""
    sent = []
    send = Node.send

    def recording_send(self, pkt):
        if pkt.port == CONTROL_PORT and isinstance(pkt.payload, tuple):
            sent.append((self.sched.now, self.name, pkt.size, pkt.payload))
        return send(self, pkt)

    monkeypatch.setattr(Node, "send", recording_send)
    return sent


def _line(n_receivers, seed=0):
    """src -- mid -- rcv with ``n_receivers`` agents of session 0 at ``rcv``
    (ids ``R0``, ``R1``, ... in start order) and a controller at ``src``."""
    sched = Scheduler()
    net = Network(sched)
    for name in ("src", "mid", "rcv"):
        net.add_node(name)
    net.add_link("src", "mid", bandwidth=10e6, delay=0.05)
    net.add_link("mid", "rcv", bandwidth=10e6, delay=0.05)
    mcast = MulticastManager(net, leave_latency=0.5)
    schedule = LayerSchedule(n_layers=3, base_rate=32_000)
    groups = tuple(mcast.create_group("src") for _ in range(3))
    desc = SessionDescriptor(0, "src", groups, schedule)
    LayeredSource(net.node("src"), 0, groups, schedule, model="cbr").start()
    controller = ControllerAgent(
        net.node("src"), [desc], TopologyDiscovery(mcast, staleness=0.0),
        StaticController(level=2), interval=1.0,
    )
    agents = []
    for i in range(n_receivers):
        rx = LayeredReceiver(net.node("rcv"), 0, list(groups), schedule, mcast,
                             receiver_id=f"R{i}", initial_level=1)
        agents.append(ReceiverAgent(rx, ["src"], interval=1.0,
                                    rng=np.random.default_rng(seed + i)))
    return sched, controller, agents


def test_a_one_agent_port_sends_one_96_byte_packet_per_interval(report_packets):
    """A lone agent's reports go out as they did when each agent reported on
    its own timer: one 96 B packet per interval, at its start plus one
    interval plus the phase it draws first from its stream."""
    sched, controller, (agent,) = _line(1)
    controller.start()
    agent.start()
    sched.run(until=10.0)
    phase = np.random.default_rng(0).uniform(0.05, 0.25)
    assert [t for t, *_ in report_packets] == pytest.approx(
        [k + phase for k in range(1, 10)])
    assert {size for _, _, size, _ in report_packets} == {REPORT_HEADER + REPORT_BLOCK} == {96}
    assert all(len(blocks) == 1 and isinstance(blocks[0], Report)
               for *_, blocks in report_packets)
    assert agent.reports_sent == 9
    assert controller.reports_received == 9


def test_forty_co_located_agents_send_two_packets_per_interval(report_packets):
    """40 agents of one session on one node: a packet of 31 blocks
    (1 056 B) and one of 9 (352 B) each interval, the blocks in start
    order; each agent is charged its block, the first of each packet the
    header too, so the agents' bytes add up to the packets' sizes."""
    assert REPORT_MAX_BLOCKS == 31
    sched, controller, agents = _line(40)
    controller.start()
    for agent in agents:
        agent.start()
    sched.run(until=4.5)
    by_time = {}
    for t, src, size, blocks in report_packets:
        assert src == "rcv"
        by_time.setdefault(t, []).append((size, [b.receiver_id for b in blocks]))
    ids = [f"R{i}" for i in range(40)]
    assert len(by_time) == 4  # one firing per interval, at the first agent's phase
    for packets in by_time.values():
        assert packets == [(1056, ids[:31]), (352, ids[31:])]
    assert controller.reports_received == 4 * 40
    report_bytes = [a.control_bytes_sent - REGISTER_SIZE * a.register_attempts for a in agents]
    assert sum(report_bytes) == 4 * (1056 + 352)
    header_and_block, block = 4 * (REPORT_HEADER + REPORT_BLOCK), 4 * REPORT_BLOCK
    assert report_bytes == (
        [header_and_block] + [block] * 30 + [header_and_block] + [block] * 8)


def _registered_controller(rids):
    sched, controller, _ = _line(0)
    for seq, rid in enumerate(rids, 1):
        controller._on_packet(Packet(src="rcv", dst="src", size=REGISTER_SIZE, kind=CONTROL,
                                     port=CONTROL_PORT, payload=Register(rid, 0, seq=seq)))
    return controller


def _block(rid, seq=10, loss=0.0):
    return Report(rid, 0, loss_rate=loss, bytes=4000.0, level=1, t0=0.0, t1=1.0, seq=seq)


def _deliver(controller, payload):
    controller._on_packet(Packet(src="rcv", dst="src", size=REPORT_HEADER + REPORT_BLOCK,
                                 kind=CONTROL, port=CONTROL_PORT, payload=payload))


def test_a_malformed_block_is_rejected_alone():
    """Each block passes the guard on its own: a garbled block and a
    non-report element are counted and dropped, and their siblings in the
    same packet are admitted.  A bare ``Report`` is no report packet."""
    controller = _registered_controller(["A", "B", "C"])
    guard = controller.guard
    _deliver(controller, (_block("A"), _block("B", loss=-1.0), "junk", _block("C")))
    assert guard.rejections == {"loss_out_of_range": 1, "unknown_payload": 1}
    assert controller.reports_received == 2
    table = controller.receivers[0]
    assert [table[r].latest is not None for r in "ABC"] == [True, False, True]
    # B's rejected block burned no sequence number.
    _deliver(controller, (_block("B"),))
    assert table["B"].latest.seq == 10
    _deliver(controller, _block("A", seq=11))
    assert guard.rejections["unknown_payload"] == 2
    assert table["A"].latest.seq == 10


def test_a_co_located_liar_is_quarantined_from_inside_a_shared_packet(report_packets):
    """A ``lie_high`` receiver shares its node, and so its report packets,
    with two honest ones: the guard strikes and quarantines it alone."""
    sc = Scenario(seed=1)
    for name in ("src", "home", "away"):
        sc.add_node(name)
    sc.add_link("src", "home", bandwidth=10e6)
    sc.add_link("src", "away", bandwidth=10e6)
    sess = sc.add_session("src", traffic="cbr")
    sc.attach_controller("src")
    for rid, node in (("h1", "home"), ("liar", "home"), ("h2", "home"), ("other", "away")):
        sc.add_receiver(sess.session_id, node, receiver_id=rid)
    FaultPlan().add(10.0, "byzantine_start", "liar", "lie_high").apply(sc)
    sc.run(40.0)
    guard, sid = sc.controller.guard, sess.session_id
    home = [[b.receiver_id for b in blocks] for t, src, _, blocks in report_packets
            if src == "home" and t > 10.0]
    assert home and all(ids == ["h1", "liar", "h2"] for ids in home)
    assert [key[1] for _, kind, key, _ in guard.events if kind == "quarantine"] == ["liar"]
    assert {key[1] for _, kind, key, _ in guard.events if kind == "strike"} == {"liar"}
    assert guard.is_quarantined((sid, "liar"))
    assert not any(guard.is_quarantined((sid, rid)) for rid in ("h1", "h2", "other"))


def _report_chains(sched):
    """Live periodic chains that send a session port's reports."""
    return [entry for entry in sched._heap
            if isinstance(entry[2], _Periodic)
            and isinstance(getattr(entry[2].fn, "__self__", None), _SessionPort)]


def test_churn_on_one_node_leaves_no_orphan_report_chain(report_packets):
    """Both receivers at ``rcv`` leave and rejoin again and again, the last
    one leaving the port unbound each time, sometimes for less than an
    interval: a port's chain ends at its first firing after its last agent
    left, the heap stays as large as it was, and the port bound again
    reports again."""
    sc = Scenario(seed=1)
    for name in ("src", "mid", "rcv"):
        sc.add_node(name)
    sc.add_link("src", "mid", bandwidth=10e6)
    sc.add_link("mid", "rcv", bandwidth=10e6)
    sess = sc.add_session("src", traffic="cbr")
    sc.attach_controller("src")
    for rid in ("A", "B"):
        sc.add_receiver(sess.session_id, "rcv", receiver_id=rid)
    plan = FaultPlan()
    cycles = 12
    for k in range(cycles):
        t = 10.0 + 6.0 * k
        plan.add(t, "receiver_leave", "A").add(t + 0.3, "receiver_leave", "B")
        # The port stays unbound for 0.5 s or for 3 s, alternately.
        back = t + (0.8 if k % 2 else 3.3)
        plan.add(back, "receiver_join", "B").add(back + 0.2, "receiver_join", "A")
    plan.apply(sc)
    pending = []
    sc.run(9.0)
    for _ in range(cycles):
        sc.run(6.0)  # each sample sits 5 s after a rejoin
        assert len(_report_chains(sc.sched)) == 1
        pending.append(sc.sched.pending)
    assert max(pending[cycles // 2:]) <= max(pending[:cycles // 2])
    last_join = 10.0 + 6.0 * (cycles - 1) + 0.8
    late = [[b.receiver_id for b in blocks] for t, src, _, blocks in report_packets
            if src == "rcv" and t > last_join + 1.5]
    assert late and all(ids == ["B", "A"] for ids in late)
