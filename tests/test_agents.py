"""Integration tests for the controller/receiver agents over the simulated
network (registration, reporting, suggestions, unilateral fallback)."""

import numpy as np
import pytest

from repro.baselines.static import StaticController
from repro.control.agent import ControllerAgent, ReceiverAgent
from repro.control.discovery import TopologyDiscovery
from repro.control.session import SessionDescriptor
from repro.core.types import SuggestionSet
from repro.experiments.scenario import Scenario
from repro.media.layers import LayerSchedule
from repro.media.receiver import LayeredReceiver
from repro.media.source import LayeredSource
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network


def build(n_layers=3, bandwidth=10e6, algorithm=None):
    """src -- mid -- rcv line with a source, receiver and controller."""
    sched = Scheduler()
    net = Network(sched)
    for name in ["src", "mid", "rcv"]:
        net.add_node(name)
    net.add_link("src", "mid", bandwidth=bandwidth, delay=0.05)
    net.add_link("mid", "rcv", bandwidth=bandwidth, delay=0.05)
    net.build_routes()
    mcast = MulticastManager(net, leave_latency=0.5, igmp_report_delay=0.0)
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
    agent = ReceiverAgent(receiver, "src", interval=1.0, rng=np.random.default_rng(0))
    return sched, net, mcast, desc, receiver, controller, agent


def test_registration_handshake():
    sched, net, mcast, desc, receiver, controller, agent = build()
    controller.start()
    agent.start()
    sched.run(until=3.0)
    assert agent.registered
    assert list(controller.receivers[0]) == ["R"]
    assert controller.receivers[0]["R"].register.node == "rcv"


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
            out = SuggestionSet()
            level = 3 if self.calls < 8 else 1
            for si in sessions:
                for rid in si.tree.receivers.values():
                    out.levels[(si.session_id, rid)] = level
            return out

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
    mcast = MulticastManager(net)
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

    def test_reregistration_after_controller_restart(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        agent.reregister_after = 3.0
        controller.start()
        agent.start()
        sched.run(until=5.0)
        controller.stop()
        sched.run(until=10.0)
        controller.start()
        sched.run(until=25.0)
        assert agent.registered
        assert agent.reregistrations >= 1
        # Suggestions resumed after the restart.
        assert any(t > 10.0 for t in agent.suggestion_times)

    def test_restart_does_not_double_tick(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        controller.start()
        sched.run(until=5.0)   # ticks at 1.75, 2.75, 3.75, 4.75
        assert controller.updates_run == 4
        controller.stop()
        sched.run(until=8.0)   # stopped: no ticks
        assert controller.updates_run == 4
        controller.start()     # new chain: 9.75, 10.75, ... one per interval
        sched.run(until=15.0)
        assert controller.updates_run == 4 + 6


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 1(b): discovery maps each tree node to one receiver id, so of "
    "a session's receivers on one node only the last registered is suggested to"))
def test_colocated_receivers_each_get_suggestions():
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
    assert all(heard.values()), heard  # today: {'A': 0, 'B': 14}
