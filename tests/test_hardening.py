"""Control-plane hardening over the simulated network.

Epoch fencing across failover, report-history edge cases, registration
soft-state expiry, byzantine receiver behaviour, duplicated, reordered and
garbled control messages, tree-level quarantine enforcement — and the adversarial acceptance run
(:class:`TestByzantineAcceptance`): with one lie-high and one lie-low
receiver, both are quarantined within five control intervals and every
honest receiver stays within one layer of its same-seed no-attack baseline.
"""

import math

import numpy as np
import pytest

from repro.baselines.static import StaticController
from repro.control.agent import ControllerAgent, ReceiverAgent, ReceiverEntry
from repro.control.discovery import TopologyDiscovery
from repro.control.messages import (
    CONTROL_PORT,
    Register,
    RegisterAck,
    Report,
    Suggestion,
    session_port,
)
from repro.control.session import SessionDescriptor
from repro.experiments.byzantine import run_byzantine
from repro.experiments.scenario import Scenario
from repro.experiments.topologies import build_topology_b
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan
from repro.media.layers import LayerSchedule
from repro.media.receiver import LayeredReceiver
from repro.media.source import LayeredSource
from repro.multicast import manager
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.packet import CONTROL, Packet
from repro.simnet.topology import Network


def build(n_layers=3, bandwidth=10e6, algorithm=None, staleness=0.0, **controller_kwargs):
    """src -- mid -- rcv line with a source, receiver and controller."""
    sched = Scheduler()
    net = Network(sched)
    for name in ["src", "mid", "rcv"]:
        net.add_node(name)
    net.add_link("src", "mid", bandwidth=bandwidth, delay=0.05)
    net.add_link("mid", "rcv", bandwidth=bandwidth, delay=0.05)
    net.build_routes()
    assert manager.IGMP_REPORT_DELAY == 0.0, "request the no_igmp_delay fixture"
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
    discovery = TopologyDiscovery(mcast, staleness=staleness)
    controller = ControllerAgent(
        net.node("src"), [desc], discovery, algorithm, interval=1.0,
        **controller_kwargs,
    )
    agent = ReceiverAgent(receiver, ["src"], interval=1.0, rng=np.random.default_rng(0))
    return sched, net, mcast, desc, receiver, controller, agent


def _deliver(agent, msg, src="src", dst="rcv"):
    """Hand a control message straight to the receiver agent."""
    agent._on_packet(Packet(
        src=src, dst=dst, size=64, kind=CONTROL,
        port=session_port(0), payload=msg,
    ))


def _line_scenario(seed=1, access_bw=500e3):
    sc = Scenario(seed=seed)
    for n in ("src", "mid", "rcv"):
        sc.add_node(n)
    sc.add_link("src", "mid", bandwidth=10e6)
    sc.add_link("mid", "rcv", bandwidth=access_bw)
    sess = sc.add_session("src", traffic="cbr")
    sc.attach_controller("src")
    sc.add_receiver(sess.session_id, "rcv", receiver_id="R")
    return sc


# ----------------------------------------------------------------------
# Epoch fencing
# ----------------------------------------------------------------------
class TestEpochFencing:
    @pytest.mark.usefixtures("no_igmp_delay")
    def test_lower_epoch_suggestion_rejected(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        agent.started_at = 0.0
        _deliver(agent, Suggestion(0, level=2, epoch=5))
        assert receiver.level == 2
        assert agent.controller_epoch == 5
        _deliver(agent, Suggestion(0, level=3, epoch=3))
        assert receiver.level == 2  # stale controller ignored
        assert agent.stale_suggestions_rejected == 1
        _deliver(agent, Suggestion(0, level=3, epoch=6))
        assert receiver.level == 3
        assert agent.controller_epoch == 6

    @pytest.mark.usefixtures("no_igmp_delay")
    def test_epoch_zero_fenced(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        _deliver(agent, Suggestion(0, level=2, epoch=5))
        _deliver(agent, Suggestion(0, level=1, epoch=0))
        assert receiver.level == 2  # epoch 0 is just an old epoch
        assert agent.stale_suggestions_rejected == 1
        assert agent.controller_epoch == 5

    @pytest.mark.usefixtures("no_igmp_delay")
    def test_stale_ack_does_not_register(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        _deliver(agent, Suggestion(0, level=1, epoch=5))
        _deliver(agent, RegisterAck("R", 0, epoch=3))
        assert not agent.registered
        assert agent.stale_suggestions_rejected == 1

    @pytest.mark.usefixtures("no_igmp_delay")
    def test_malformed_suggestions_rejected(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        _deliver(agent, Suggestion(0, level=2, epoch=1), dst="elsewhere")
        _deliver(agent, Suggestion(99, level=2, epoch=1))
        _deliver(agent, Suggestion(0, level=-1, epoch=1))
        _deliver(agent, Suggestion(0, level=99, epoch=1))
        _deliver(agent, Suggestion(0, level=True, epoch=1))
        # Well formed, but from a node that is none of the agent's controllers.
        _deliver(agent, Suggestion(0, level=2, epoch=1), src="rcv")
        assert agent.invalid_suggestions_rejected == 6
        assert receiver.level == 1

    @pytest.mark.usefixtures("no_igmp_delay")
    def test_start_bumps_epoch_and_stamps_messages(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        assert controller.epoch == 0
        controller.start()
        assert controller.epoch == 1
        agent.start()
        sched.run(until=5.0)
        assert agent.controller_epoch == 1

    def test_deposed_controller_fenced_out_after_failover(self):
        """The acceptance criterion: whatever the deposed primary still had
        in flight when the standby took over is rejected by receivers."""
        sc = Scenario(seed=1)
        for n in ("src", "mid", "standby", "rcv"):
            sc.add_node(n)
        sc.add_link("src", "mid", bandwidth=10e6)
        sc.add_link("standby", "mid", bandwidth=10e6)
        sc.add_link("mid", "rcv", bandwidth=500e3)
        sess = sc.add_session("src", traffic="cbr")
        sc.attach_controller("src", standby_node="standby")
        sc.add_receiver(sess.session_id, "rcv", receiver_id="R", reregister_after=3.0)
        primary = sc.controller
        plan = (
            FaultPlan()
            .add(10.0, "controller_kill")
            .add(12.0, "controller_failover")
        )
        plan.apply(sc)
        sc.run(35.0)
        standby = sc.controller
        assert standby is not primary
        # The standby's fencing token is strictly above the primary's, and
        # the killed primary stays down across run() calls.
        assert not primary.active and standby.active
        assert standby.epoch > primary.epoch
        agent = sc.receivers[0].agent
        assert agent.controller_epoch == standby.epoch
        assert agent.controller_node == "standby"
        assert agent.registered
        level = agent.receiver.level
        rejected = agent.stale_suggestions_rejected
        deposed = Suggestion(sess.session_id, level=0, epoch=primary.epoch)
        _deliver(agent, deposed)
        assert agent.stale_suggestions_rejected == rejected + 1
        assert agent.receiver.level == level


def _to_controller(controller, msg):
    """Hand a control message straight to the controller agent; a bare
    ``Report`` travels as the one block of a report packet."""
    controller._on_packet(Packet(
        src="rcv", dst="src", size=96, kind=CONTROL,
        port=CONTROL_PORT, payload=(msg,) if isinstance(msg, Report) else msg,
    ))


def _rep(seq, loss=0.0, session=0):
    return Report("R", session, loss_rate=loss, bytes=4000.0, level=1,
                  t0=0.0, t1=1.0, seq=seq)


# ----------------------------------------------------------------------
# Report history (ReceiverEntry.report_as_of) edge cases
# ----------------------------------------------------------------------
class TestReportHistory:
    def _entry(self):
        return ReceiverEntry("R", "rcv", now=0.0)

    def test_empty_history_returns_none(self):
        entry = self._entry()
        assert entry.report_as_of(10.0) is None
        assert entry.latest is None

    def test_cutoff_exactly_at_arrival_included(self):
        entry = self._entry()
        rep = _rep(1)
        entry.history.append((5.0, rep))
        assert entry.report_as_of(5.0) is rep
        assert entry.report_as_of(4.999) is None

    def test_newest_eligible_report_wins(self):
        entry = self._entry()
        a, b, c = _rep(1), _rep(2), _rep(3)
        entry.history.extend([(1.0, a), (2.0, b), (3.0, c)])
        assert entry.report_as_of(2.5) is b
        assert entry.latest is c

    @pytest.mark.usefixtures("no_igmp_delay")
    def test_history_pruned_to_64_entries(self):
        # Staleness beyond every arrival: no report is ever out of reach,
        # so only the REPORT_HISTORY cap trims.
        controller = build(staleness=1000.0)[5]
        controller.receivers[0]["R"] = entry = self._entry()
        for seq in range(1, 101):
            _to_controller(controller, _rep(seq))
        assert len(entry.history) == 64
        # The oldest 36 were dropped; the newest survive in order.
        assert [rep.seq for _, rep in entry.history] == list(range(37, 101))
        assert entry.latest.seq == 100
        # At staleness zero every tick reads the newest report: nothing
        # older is kept.
        controller = build()[5]
        controller.receivers[0]["R"] = entry = self._entry()
        for seq in range(1, 101):
            _to_controller(controller, _rep(seq))
        assert [rep.seq for _, rep in entry.history] == [100]

    @pytest.mark.usefixtures("no_igmp_delay")
    def test_history_keeps_what_a_later_cutoff_can_read(self):
        """Reports one second apart at staleness 2.5 s: the history keeps
        the newest report that arrived by ``now - 2.5`` and everything
        after it, and every cutoff from then on reads what the untrimmed
        history would."""
        sched, net, mcast, desc, receiver, controller, agent = build(staleness=2.5)
        controller.receivers[0]["R"] = entry = self._entry()
        full = []
        for seq in range(1, 11):
            sched.run(until=float(seq))
            _to_controller(controller, _rep(seq))
            full.append((sched.now, entry.latest))
        assert [t for t, _ in entry.history] == [7.0, 8.0, 9.0, 10.0]
        for cutoff in (7.5, 8.0, 9.99, 10.0, 50.0):
            expected = next((r for t, r in reversed(full) if t <= cutoff), None)
            assert entry.report_as_of(cutoff) is expected

    def test_retained_reports_do_not_grow_with_the_horizon(self):
        """Topology B at staleness 6 s: the controller keeps the same
        number of reports per receiver after 60 s and after 240 s, at most
        the ones a 6 s old cutoff can still reach."""
        longest = []
        for horizon in (60.0, 240.0):
            sc = build_topology_b(staleness=6.0, seed=1)
            sc.run(horizon)
            controller = sc.controller
            longest.append(max(
                len(entry.history)
                for table in controller.receivers.values() for entry in table.values()))
        assert longest[0] == longest[1]
        assert longest[1] <= math.ceil(6.0 / controller.interval) + 2


# ----------------------------------------------------------------------
# Registration soft state
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("no_igmp_delay")
class TestControllerState:
    def test_silent_registration_expires(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        controller.start()
        agent.start()
        sched.run(until=5.0)
        assert "R" in controller.receivers[0]
        agent.stop()  # receiver departs without a goodbye
        # TTL is 10 intervals of 1 s; well past it the soft state is gone.
        sched.run(until=20.0)
        assert controller.receivers[0] == {}
        assert controller.registrations_expired == 1

    def test_active_registration_never_expires(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        controller.start()
        agent.start()
        sched.run(until=30.0)
        assert "R" in controller.receivers[0]
        assert controller.registrations_expired == 0

    def test_sessions_sharing_a_receiver_id_keep_separate_entries(self):
        """State is keyed by (session, receiver): expiring one session's
        "R" must not touch the other's entry or reports."""
        # Staleness 10 s keeps both of session 0's reports within reach at
        # t = 8, so its history shows exactly what arrived for it.
        sched, net, mcast, desc, receiver, controller, agent = build(staleness=10.0)
        groups = tuple(mcast.create_group("src") for _ in range(3))
        controller.add_session(SessionDescriptor(1, "src", groups, desc.schedule))
        for sid in (0, 1):
            _to_controller(controller, Register("R", sid, seq=1))
            _to_controller(controller, _rep(2, loss=0.1 * sid, session=sid))
        sched.run(until=8.0)
        _to_controller(controller, _rep(3, session=0))  # session 0 stays fresh
        # TTL is 10 intervals of 1 s: session 1's "R" (silent since t=0)
        # expires at t=12, session 0's (heard at t=8) does not.
        controller._expire_registrations(12.0)
        assert controller.receivers[1] == {}
        kept = controller.receivers[0]["R"]
        assert [(rep.session_id, rep.seq) for _, rep in kept.history] == [(0, 2), (0, 3)]
        assert (kept.receiver_id, kept.node) == ("R", "rcv")
        assert controller.registrations_expired == 1

    def test_bad_controller_params_rejected(self):
        sched = Scheduler()
        net = Network(sched)
        net.add_node("a")
        mcast = MulticastManager(net, leave_latency=2.0)
        disc = TopologyDiscovery(mcast)

        def make(**kw):
            return ControllerAgent(net.node("a"), [], disc, StaticController(1), **kw)

        with pytest.raises(ValueError):
            make(initial_epoch=-1)


# ----------------------------------------------------------------------
# Byzantine receiver behaviour
# ----------------------------------------------------------------------
class TestByzantineReceiver:
    @pytest.mark.usefixtures("no_igmp_delay")
    def test_unknown_mode_rejected(self):
        agent = build()[6]
        with pytest.raises(ValueError):
            agent.set_byzantine("meteor")
        with pytest.raises(ValueError):
            agent.set_byzantine("lie_high+meteor")
        assert agent.byzantine_mode is None  # a failed switch changes nothing
        agent.set_byzantine("lie_high+disobey")  # combinations are fine
        assert agent.byzantine_mode == {"lie_high", "disobey"}

    @pytest.mark.usefixtures("no_igmp_delay")
    def test_lie_high_is_quarantined_and_pinned(self):
        sched, net, mcast, desc, receiver, controller, agent = build()
        agent.set_byzantine("lie_high")
        controller.start()
        agent.start()
        sched.run(until=15.0)
        assert agent.lies_told > 0
        assert controller.guard.is_quarantined((0, "R"))
        assert controller.guard.strike_counts["inconsistent_loss"] >= 3
        # Suggestions clamp to QUARANTINE_LEVEL (1), and the honest media
        # path still obeys them: the receiver sits at 1, not Static's 2.
        assert receiver.level == 1

    @pytest.mark.usefixtures("no_igmp_delay")
    def test_disobedient_climber_accrues_strikes(self):
        sched, net, mcast, desc, receiver, controller, agent = build(n_layers=6)
        agent.set_byzantine("disobey")
        controller.start()
        agent.start()
        sched.run(until=20.0)
        # Ignored Static's level-2 suggestions and climbed to the top.
        assert receiver.level == 6
        assert agent.suggestions_received > 0  # heard, counted, ignored
        assert controller.guard.strike_counts["disobedience"] >= 3
        assert controller.guard.is_quarantined((0, "R"))

    def test_fault_injector_flips_modes(self):
        sc = _line_scenario()
        injector = FaultPlan().add(5.0, "byzantine_start", "R", "lie_high").apply(sc)
        sc.run(4.0)
        agent = sc.receivers[0].agent
        assert agent.byzantine_mode is None and agent.lies_told == 0
        sc.run(8.0)
        assert agent.byzantine_mode == {"lie_high"}
        assert agent.lies_told > 0
        assert [(t, k) for t, k, _ in injector.log] == [(5.0, "byzantine_start")]

    def test_unknown_receiver_raises(self):
        sc = _line_scenario()
        injector = FaultInjector(sc)
        with pytest.raises(KeyError):
            injector.byzantine_start("NOBODY", "lie_high")


# ----------------------------------------------------------------------
# Tree-level quarantine enforcement
# ----------------------------------------------------------------------
class TestQuarantineEnforcement:
    @pytest.mark.usefixtures("no_igmp_delay")
    def test_set_blocked_overrides_desire(self):
        sched = Scheduler()
        net = Network(sched)
        for n in ("s", "r"):
            net.add_node(n)
        net.add_link("s", "r", bandwidth=1e6)
        net.build_routes()
        mcast = MulticastManager(net, leave_latency=0.0)
        g = mcast.create_group("s")
        mcast.join(g, "r")
        sched.run(until=1.0)
        assert "r" in mcast.members(g)
        mcast.set_blocked(g, "r", True)
        sched.run(until=2.0)
        assert "r" not in mcast.members(g)
        # Joins while blocked are recorded but denied ...
        mcast.join(g, "r")
        sched.run(until=3.0)
        assert "r" not in mcast.members(g)
        # ... and take effect once the block lifts.
        mcast.set_blocked(g, "r", False)
        sched.run(until=4.0)
        assert "r" in mcast.members(g)

    def test_set_blocked_is_idempotent(self):
        sched = Scheduler()
        net = Network(sched)
        for n in ("s", "r"):
            net.add_node(n)
        net.add_link("s", "r", bandwidth=1e6)
        net.build_routes()
        mcast = MulticastManager(net, leave_latency=2.0)
        g = mcast.create_group("s")
        t1 = mcast.set_blocked(g, "r", True)
        t2 = mcast.set_blocked(g, "r", True)  # no-op
        assert t2 <= t1  # effective immediately: nothing to change
        assert "r" in mcast.groups[g].blocked

    def test_disobedient_liar_pruned_from_upper_layers(self):
        # End-to-end: in a scenario (enforcer wired), a lie_low+disobey
        # receiver is physically cut from every group above QUARANTINE_LEVEL
        # even though it ignores all suggestions.
        sc = _line_scenario(access_bw=1.5e6)
        FaultPlan().add(10.0, "byzantine_start", "R", "lie_low+disobey").apply(sc)
        sc.run(60.0)
        controller = sc.controller
        assert controller.guard.is_quarantined((0, "R"))
        groups = sc.sessions[0].groups
        # Blocked above level 1: member of the base group at most.
        for g in groups[1:]:
            assert "rcv" not in sc.mcast.members(g)
        handle = sc.receivers[0]
        assert handle.receiver.level > 1  # it *wants* the layers ...
        before = handle.receiver.total_bytes
        sc.run(5.0)
        delta_bits = (handle.receiver.total_bytes - before) * 8 / 5.0
        # ... but receives at most the base layer's rate (plus slack).
        assert delta_bits < 1.5 * 32_000


# ----------------------------------------------------------------------
# Control-packet corruption: duplicated, reordered and garbled messages
# handed straight to the agents' ``_on_packet``
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("no_igmp_delay")
class TestPacketCorruption:
    def _registered(self):
        built = build()
        controller = built[5]
        _to_controller(controller, Register("R", 0, seq=1))
        assert "R" in controller.receivers[0]
        return built

    def test_garble_rejected_until_restored(self):
        controller = self._registered()[5]
        garbled = Report("R", 0, loss_rate=-1.0, bytes=-1.0, level=1,
                         t0=0.0, t1=1.0, seq=2)
        _to_controller(controller, garbled)
        assert controller.reports_received == 0
        assert controller.guard.rejections["loss_out_of_range"] == 1
        # A clean report after the garbled one is admitted: a rejection
        # burns no sequence number.
        _to_controller(controller, _rep(2))
        assert controller.reports_received == 1

    def test_garble_drives_each_message_type_out_of_range(self):
        sched, net, mcast, desc, receiver, controller, agent = self._registered()
        guard = controller.guard
        _to_controller(controller, Report("R", 0, 0.1, -1.0, 1, 0.0, 1.0, seq=2))
        _to_controller(controller, Register(None, 0, seq=3))
        _to_controller(controller, ("garbled", _rep(4)))
        assert guard.rejections == {
            "bad_bytes": 1, "malformed_register": 1, "unknown_payload": 1}
        # The garbled block of the report packet is rejected alone: the
        # well-formed block beside it is admitted.
        assert controller.reports_received == 1
        _deliver(agent, Suggestion(0, level=-1, epoch=1))
        _deliver(agent, RegisterAck(("garbled", "R"), 0, epoch=1))
        assert agent.invalid_suggestions_rejected == 2
        assert receiver.level == 1 and not agent.registered

    def test_duplicates_deduplicated_by_seq(self):
        controller = self._registered()[5]
        for _ in range(2):
            _to_controller(controller, _rep(2))
            _to_controller(controller, Register("R", 0, seq=3))
        assert controller.reports_received == 1
        assert controller.guard.rejections["stale_seq"] == 2

    def test_reordering_rejected_by_seq(self):
        controller = self._registered()[5]
        _to_controller(controller, _rep(3))
        _to_controller(controller, _rep(2))  # the straggler arrives second
        assert controller.guard.rejections["stale_seq"] == 1
        assert [rep.seq for _, rep in controller.receivers[0]["R"].history] == [3]


# ----------------------------------------------------------------------
# The adversarial acceptance run
# ----------------------------------------------------------------------
class TestByzantineAcceptance:
    def test_seeded_attack_quarantined_honest_unharmed(self):
        result = run_byzantine(seed=1)
        assert result["ok"], result
        for rid, liar in result["liars"].items():
            assert liar["within_deadline"], (rid, liar)
            assert liar["quarantined_at"] <= result["quarantine_deadline"]
        assert result["false_quarantines"] == []
        assert result["precision"] == 1.0
        assert result["recall"] == 1.0
        for rid, h in result["honest"].items():
            assert h["mean_divergence"] <= result["divergence_budget"], (rid, h)
            assert not h["ever_quarantined"]

    def test_attack_start_validated(self):
        with pytest.raises(ValueError):
            run_byzantine(seed=1, duration=60.0, attack_start=60.0)
