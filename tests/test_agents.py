"""Integration tests for the controller/receiver agents over the simulated
network (registration, reporting, suggestions, unilateral fallback)."""

import numpy as np
import pytest

from repro.baselines.static import StaticController
from repro.control.agent import (
    QUARANTINE_LEVEL,
    REGISTRATION_TTL_INTERVALS,
    ControllerAgent,
    ReceiverAgent,
)
from repro.control.discovery import TopologyDiscovery
from repro.control.messages import (
    CONTROL_PORT,
    REGISTER_SIZE,
    Register,
    RegisterAck,
    session_port,
)
from repro.control.session import SessionDescriptor
from repro.experiments.scenario import Scenario
from repro.experiments.topologies import build_topology_a
from repro.faults.plan import FaultPlan
from repro.media.layers import LayerSchedule
from repro.media.receiver import LayeredReceiver
from repro.media.source import LayeredSource
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.packet import CONTROL, Packet
from repro.simnet.topology import Network

pytestmark = pytest.mark.usefixtures("no_igmp_delay")


def build(n_layers=3, bandwidth=10e6, algorithm=None):
    """src -- mid -- rcv line with a source, receiver and controller."""
    sched = Scheduler()
    net = Network(sched)
    for name in ["src", "mid", "rcv"]:
        net.add_node(name)
    net.add_link("src", "mid", bandwidth=bandwidth, delay=0.05)
    net.add_link("mid", "rcv", bandwidth=bandwidth, delay=0.05)
    net.build_routes()
    mcast = MulticastManager(net, leave_latency=0.5)
    schedule = LayerSchedule(n_layers=n_layers, base_rate=32_000)
    groups = tuple(mcast.create_group("src") for _ in range(n_layers))
    desc = SessionDescriptor(0, "src", groups, schedule)
    source = LayeredSource(net.node("src"), 0, groups, schedule, model="cbr")
    source.start()
    receiver = LayeredReceiver(
        net.node("rcv"), 0, list(groups), schedule, mcast,
        receiver_id="R", initial_level=1,
    )
    if algorithm is None:
        algorithm = StaticController(level=2)
    discovery = TopologyDiscovery(mcast, staleness=0.0)
    controller = ControllerAgent(net.node("src"), [desc], discovery, algorithm, interval=1.0)
    agent = ReceiverAgent(receiver, ["src"], interval=1.0, rng=np.random.default_rng(0))
    return sched, net, mcast, desc, receiver, controller, agent


def test_registration_handshake():
    sched, net, mcast, desc, receiver, controller, agent = build()
    controller.start()
    agent.start()
    sched.run(until=3.0)
    assert agent.registered
    assert list(controller.receivers[0]) == ["R"]
    assert controller.receivers[0]["R"].node == "rcv"


def test_reports_flow_to_controller():
    sched, net, mcast, desc, receiver, controller, agent = build()
    controller.start()
    agent.start()
    sched.run(until=5.0)
    assert controller.reports_received >= 3
    rep = controller.receivers[0]["R"].latest
    assert rep.level >= 1
    assert 0.0 <= rep.loss_rate <= 1.0


def test_suggestions_obeyed():
    sched, net, mcast, desc, receiver, controller, agent = build()
    controller.start()
    agent.start()
    sched.run(until=10.0)
    # Static controller says level 2; receiver should sit there.
    assert receiver.level == 2
    assert agent.suggestions_received >= 1


def test_upward_suggestions_one_layer_at_a_time():
    sched, net, mcast, desc, receiver, controller, agent = build(
        algorithm=StaticController(level=3)
    )
    controller.start()
    agent.start()
    sched.run(until=20.0)
    assert receiver.level == 3
    # The climb must have passed through level 2.
    values = receiver.trace.values
    assert 2 in values


def test_downward_suggestion_applied_immediately():
    class DropController:
        def __init__(self):
            self.calls = 0

        def update(self, now, sessions):
            self.calls += 1
            level = 3 if self.calls < 8 else 1
            return {(si.session_id, leaf): level for si in sessions for leaf in si.tree.leaves}

    sched, net, mcast, desc, receiver, controller, agent = build(algorithm=DropController())
    controller.start()
    agent.start()
    sched.run(until=6.0)
    assert receiver.level == 3
    sched.run(until=12.0)
    assert receiver.level == 1  # dropped straight down, not one at a time


def test_controller_tick_counts():
    sched, net, mcast, desc, receiver, controller, agent = build()
    controller.start()
    agent.start()
    sched.run(until=10.5)
    # Ticks start at 1.75 * interval, then every interval.
    assert controller.updates_run == 9
    assert controller.suggestions_sent >= controller.updates_run - 1


def test_unilateral_drop_when_controller_silent():
    sched, net, mcast, desc, receiver, controller, agent = build()
    controller.start()
    agent.start()
    sched.run(until=5.0)
    assert receiver.level == 2
    # Sever the control path: every outgoing controller message vanishes
    # (as if congestion ate all suggestion packets).
    controller._send_to = lambda *a, **k: None
    # Starve the receiver of data too so it sees loss (silence detection).
    for g in desc.groups:
        net.node("src").set_forwarding(g, None)
    sched.run(until=20.0)
    assert agent.unilateral_drops >= 1
    assert receiver.level < 2


def test_no_unilateral_before_first_suggestion():
    sched, net, mcast, desc, receiver, controller, agent = build()
    # Controller never started: no suggestions at all.
    agent.start()
    sched.run(until=15.0)
    assert agent.unilateral_drops == 0
    assert receiver.level == 1


def test_register_retries_until_ack():
    sched, net, mcast, desc, receiver, controller, agent = build()
    agent.start()  # controller not yet listening
    sched.run(until=2.5)
    assert not agent.registered
    controller.start()
    sched.run(until=10.0)
    assert agent.registered


def test_invalid_interval_rejected():
    sched = Scheduler()
    net = Network(sched)
    net.add_node("a")
    mcast = MulticastManager(net, leave_latency=2.0)
    disc = TopologyDiscovery(mcast)
    with pytest.raises(ValueError):
        ControllerAgent(net.node("a"), [], disc, StaticController(1), interval=0.0)


def test_add_session_after_construction():
    sched, net, mcast, desc, receiver, controller, agent = build()
    schedule = LayerSchedule(n_layers=2)
    groups = tuple(mcast.create_group("src") for _ in range(2))
    extra = SessionDescriptor(99, "src", groups, schedule)
    controller.add_session(extra)
    assert 99 in controller.sessions


def test_start_twice_is_noop():
    sched, net, mcast, desc, receiver, controller, agent = build()
    controller.start()
    controller.start()
    agent.start()
    agent.start()
    sched.run(until=5.5)
    assert controller.updates_run == 4  # not doubled


class TestGracefulDegradation:
    def test_orphaned_receiver_goes_unilateral_after_grace(self):
        # Receiver over-subscribed on a 100 Kb/s link (3 layers = 224 Kb/s)
        # and the controller never comes up: after ``UNILATERAL_AFTER`` of
        # never having heard a suggestion, it must shed layers on its own.
        sched, net, mcast, desc, receiver, controller, agent = build(
            bandwidth=100e3
        )
        receiver.set_level(3)
        agent.start()  # controller never started
        sched.run(until=20.0)
        assert agent.unilateral_drops >= 1
        assert receiver.level < 3

    def test_no_reregistration_while_controller_healthy(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        agent.reregister_after = 3.0
        controller.start()
        agent.start()
        sched.run(until=30.0)
        assert agent.reregistrations == 0
        assert agent.registered

    def test_last_good_tree_may_outlive_its_receivers(self):
        """During a discovery outage the controller serves its last tree,
        whose leaf may have lost every receiver to expiry since: the leaf
        then has no report and no one to suggest to, and the tick goes on."""
        sched, net, mcast, desc, receiver, controller, agent = build()
        controller.start()
        agent.start()
        sched.run(until=5.0)
        assert controller.last_suggestions == {(0, "rcv"): 2}
        controller.discovery.available = False
        agent.stop()
        sched.run(until=20.0)  # expired after 10 silent intervals of 1 s
        assert controller.receivers[0] == {} and controller.registrations_expired == 1
        assert controller.last_suggestions == {(0, "rcv"): 2}  # the cached tree's leaf
        assert controller.updates_run == 19

    def test_silence_watchdog_drops_registration(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        agent.reregister_after = 3.0
        controller.start()
        agent.start()
        sched.run(until=5.0)
        assert agent.registered
        controller.stop()
        sched.run(until=15.0)
        assert agent.reregistrations >= 1

    def test_restart_does_not_double_tick(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        controller.start()
        sched.run(until=5.0)   # ticks at 1.75, 2.75, 3.75, 4.75
        assert controller.updates_run == 4
        controller.stop()
        sched.run(until=8.0)   # stopped: no ticks
        assert controller.updates_run == 4
        controller.start()     # a controller starts at most once
        sched.run(until=15.0)
        assert controller.updates_run == 4
        assert not controller.active and controller.epoch == 1


def test_colocated_receivers_each_get_suggestions():
    """Discovery maps each tree node to one receiver id, but a suggestion
    is addressed to the node and every receiver of the session there hears
    it (it used to reach only the last registered: ``{'A': 0, 'B': 14}``)."""
    sc = Scenario(seed=1)
    for name in ("src", "home"):
        sc.add_node(name)
    sc.add_link("src", "home", bandwidth=10e6)
    sess = sc.add_session("src")
    sc.attach_controller("src")
    sc.add_receiver(sess.session_id, "home", receiver_id="A")
    sc.add_receiver(sess.session_id, "home", receiver_id="B")
    sc.run(30.0)
    heard = {h.receiver_id: h.agent.suggestions_received for h in sc.receivers}
    assert heard['A'] == heard['B'] > 0, heard
    assert sc.controller.suggestions_sent == heard['A']


def test_a_quarantine_caps_its_whole_node_and_no_other():
    """A suggestion reaches every receiver of its session at its node, so a
    liar's quarantine caps the honest receiver beside it too (the enforcer
    blocks the whole node above that level anyway); a receiver on another
    node keeps its level."""
    sc = Scenario(seed=1)
    for name in ("src", "home", "away"):
        sc.add_node(name)
    sc.add_link("src", "home", bandwidth=10e6)
    sc.add_link("src", "away", bandwidth=10e6)
    sess = sc.add_session("src", traffic="cbr")
    sc.attach_controller("src", algorithm=StaticController(level=3))
    for rid, node in (("honest", "home"), ("liar", "home"), ("other", "away")):
        sc.add_receiver(sess.session_id, node, receiver_id=rid)
    FaultPlan().add(10.0, "byzantine_start", "liar", "lie_high").apply(sc)
    sc.run(10.0)
    assert {h.receiver_id: h.receiver.level for h in sc.receivers} == {
        "honest": 3, "liar": 3, "other": 3}
    sc.run(30.0)
    guard = sc.controller.guard
    sid = sess.session_id
    assert guard.is_quarantined((sid, "liar"))
    assert not guard.is_quarantined((sid, "honest"))
    handles = {h.receiver_id: h for h in sc.receivers}
    assert handles["honest"].receiver.level == handles["liar"].receiver.level == QUARANTINE_LEVEL
    assert handles["other"].receiver.level == 3
    entries = sc.controller.receivers[sid]
    assert entries["honest"].last_suggested == entries["liar"].last_suggested == QUARANTINE_LEVEL
    assert entries["other"].last_suggested == 3


def test_a_co_located_liar_is_sibling_audited():
    """The sibling audit sees every receiver's report, not only the one
    speaking for its leaf: a ``lie_low`` receiver registered before an
    honest one on its node is struck against the receivers under the same
    parent."""
    sc = Scenario(seed=1)
    for name in ("src", "agg", "l1", "l2", "l3"):
        sc.add_node(name)
    sc.add_link("src", "agg", bandwidth=300e3)  # every receiver sees loss
    for leaf in ("l1", "l2", "l3"):
        sc.add_link("agg", leaf, bandwidth=10e6)
    sess = sc.add_session("src", traffic="cbr")
    sc.attach_controller("src", algorithm=StaticController(level=4))
    for rid, node in (("liar", "l1"), ("speaker", "l1"), ("h2", "l2"), ("h3", "l3")):
        sc.add_receiver(sess.session_id, node, receiver_id=rid)
    FaultPlan().add(10.0, "byzantine_start", "liar", "lie_low").apply(sc)
    sc.run(30.0)
    sid = sess.session_id
    at_l1 = [rid for rid, e in sc.controller.receivers[sid].items() if e.node == "l1"]
    assert at_l1 == ["liar", "speaker"]  # "speaker" speaks for l1
    struck = [key[1] for _, kind, key, why in sc.controller.guard.events
              if kind == "strike" and why == "under_report"]
    assert struck and set(struck) == {"liar"}
    assert (sid, "liar") in {key for _, kind, key, _ in sc.controller.guard.events
                             if kind == "quarantine"}


def test_a_node_stays_blocked_while_any_quarantined_receiver_remains():
    """Two disobedient liars share a node.  When one departs and its
    registration expires, the other is still quarantined, so the node
    stays pruned from the upper layer groups: the routers keep serving it
    at most QUARANTINE_LEVEL.  When the second departs and expires too,
    the block goes."""
    sc = Scenario(seed=1)
    for name in ("src", "home", "away"):
        sc.add_node(name)
    sc.add_link("src", "home", bandwidth=10e6)
    sc.add_link("src", "away", bandwidth=10e6)
    sess = sc.add_session("src", traffic="cbr")
    sc.attach_controller("src")
    for rid, node in (("liar1", "home"), ("liar2", "home"), ("other", "away")):
        sc.add_receiver(sess.session_id, node, receiver_id=rid)
    plan = FaultPlan()
    for rid in ("liar1", "liar2"):
        plan.add(10.0, "byzantine_start", rid, "lie_high+disobey")
    expired = REGISTRATION_TTL_INTERVALS * sc.controller.interval + 4.0
    plan.add(30.0, "receiver_leave", "liar1")
    plan.add(30.0 + expired, "receiver_leave", "liar2")
    plan.apply(sc)
    sid, groups = sess.session_id, sess.groups
    guard, mcast = sc.controller.guard, sc.mcast

    def served_level():
        """Layers the routers deliver to ``home``."""
        return sum(1 for g in groups if "home" in mcast.members(g))

    sc.run(30.0 + expired)
    assert "liar1" not in sc.controller.receivers[sid]
    assert guard.is_quarantined((sid, "liar2"))
    assert all("home" in mcast.groups[g].blocked for g in groups[QUARANTINE_LEVEL:])
    assert served_level() <= QUARANTINE_LEVEL
    sc.run(2 * expired)
    assert sc.controller.receivers[sid].keys() == {"other"}
    assert not any("home" in mcast.groups[g].blocked for g in groups)


# ----------------------------------------------------------------------
# Addressing: a receiver is the node it sends from and its session's port
# ----------------------------------------------------------------------
def _co_located_agents():
    """:func:`build`'s line with two receivers of session 0 at ``rcv``,
    ``A`` then ``B``, their agents started and no controller listening."""
    sched, net, mcast, desc, receiver, controller, agent = build()
    agents = {}
    for rid in ("A", "B"):
        rx = LayeredReceiver(net.node("rcv"), 0, list(desc.groups), desc.schedule, mcast,
                             receiver_id=rid, initial_level=1)
        agents[rid] = ReceiverAgent(rx, ["src"], interval=1.0, rng=np.random.default_rng(0))
        agents[rid].start()
    return sched, net, agents


def _send(net, src, dst, port, msg):
    net.node(src).send(Packet(src=src, dst=dst, size=REGISTER_SIZE, kind=CONTROL,
                              port=port, payload=msg))


def test_a_receiver_is_filed_at_the_node_its_register_comes_from():
    """The controller takes a receiver's node from its packet, so ``B0``
    registering again from ``rb0`` stays at ``rb0`` and ``A0`` keeps
    speaking for ``ra0``.  (A ``Register`` used to name its node, and one
    from ``rb0`` naming ``ra0`` filed ``B0`` there, as ``ra0``'s speaker.)"""
    sc = build_topology_a(n_receivers=2, seed=1)
    sc.run(10.0)
    table = sc.controller.receivers[0]
    assert {rid: e.node for rid, e in table.items()} == {"A0": "ra0", "B0": "rb0"}
    _send(sc.network, "rb0", "src", CONTROL_PORT, Register("B0", 0, seq=10**6))
    sc.run(2.0)
    assert table["B0"].last_heard > 10.0  # accepted
    assert {rid: e.node for rid, e in table.items()} == {"A0": "ra0", "B0": "rb0"}
    assert [rid for rid, e in table.items() if e.node == "ra0"] == ["A0"]


def test_an_ack_registers_only_the_receiver_it_names():
    """Two agents of one session share a node and its session port: an
    ack for ``A`` registers ``A``, and ``B`` keeps retrying."""
    sched, net, agents = _co_located_agents()
    sched.run(until=1.0)
    _send(net, "src", "rcv", session_port(0), RegisterAck("A", 0, epoch=1))
    sched.run(until=2.0)
    assert agents["A"].registered and not agents["B"].registered
    tries = {rid: agent.register_attempts for rid, agent in agents.items()}
    sched.run(until=12.0)
    assert agents["A"].register_attempts == tries["A"]
    assert agents["B"].register_attempts > tries["B"] and not agents["B"].registered


def test_an_ack_for_a_departed_agent_is_dropped_once():
    """An ack for an agent that left while a co-located peer stays on the
    port is counted as ``no_route`` once, as at an unbound port, and
    reaches no other agent."""
    sched, net, agents = _co_located_agents()
    agents["A"].stop()
    node = net.node("rcv")
    before = node.stats.no_route
    _send(net, "src", "rcv", session_port(0), RegisterAck("A", 0, epoch=1))
    sched.run(until=1.0)
    assert node.stats.no_route == before + 1
    assert not agents["B"].registered and agents["B"].controller_epoch == 0


def test_a_receiver_id_is_on_its_session_port_once():
    sched, net, agents = _co_located_agents()
    twin = ReceiverAgent(agents["A"].receiver, ["src"], interval=1.0,
                         rng=np.random.default_rng(1))
    with pytest.raises(ValueError, match="already on port"):
        twin.start()
