"""Fault injection and graceful degradation: plans, injectors, recovery.

The headline test is :class:`TestChaosAcceptance`: the canonical seeded
storm (controller crash + cold failover, link flap, discovery blackout)
must end with every receiver back under controller guidance within three
control intervals of each fault clearing.
"""

import inspect
import json

import pytest

from repro.control.agent import REGISTER_BACKOFF
from repro.experiments.byzantine import default_attack_plan
from repro.experiments.chaos import (
    build_chaos_scenario,
    default_chaos_plan,
    run_chaos,
)
from repro.experiments.churn import churn_receiver_ids, default_churn_plan
from repro.experiments.scenario import Scenario
from repro.faults.injectors import FaultInjector, FederationInjector, kinds_of
from repro.faults.plan import KINDS, FaultEvent, FaultPlan
from repro.federation.chaos import default_fedchaos_plan
from repro.metrics.recovery import hears_within, max_suggestion_gap


# ----------------------------------------------------------------------
# FaultPlan: construction, serialisation, clear-time semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_events_kept_time_sorted(self):
        plan = FaultPlan()
        plan.add(10.0, "link_down", "a", "b")
        plan.add(5.0, "controller_kill")
        assert [e.time for e in plan] == [5.0, 10.0]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "link_down")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "meteor_strike")

    def test_flap_expands_to_down_up_pairs(self):
        plan = FaultPlan().link_flap(40.0, "x", "y", down_for=3.0, times=2, period=6.0)
        kinds = [(e.time, e.kind) for e in plan]
        assert kinds == [
            (40.0, "link_down"),
            (43.0, "link_up"),
            (46.0, "link_down"),
            (49.0, "link_up"),
        ]

    def test_flap_period_must_cover_down_time(self):
        with pytest.raises(ValueError):
            FaultPlan().link_flap(0.0, "x", "y", down_for=5.0, period=2.0)

    def test_json_round_trip(self):
        plan = default_chaos_plan()
        rows = json.loads(json.dumps(plan.to_dicts()))
        rebuilt = FaultPlan.from_dicts(rows)
        assert rebuilt.to_dicts() == plan.to_dicts()

    def test_clear_times_skip_mid_flap_repairs(self):
        plan = default_chaos_plan()
        # link_up at 43 is followed by another link_down at 46 on the same
        # link: only the final repair (49) counts as a clear.
        assert plan.clear_times() == [22.0, 49.0, 80.0]
        assert (43.0, "link_up") in [(e.time, e.kind) for e in plan]

    def test_discovery_outage_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().discovery_outage(10.0, 5.0)
        plan = FaultPlan().discovery_outage(0.0, 5.0)
        assert [(e.time, e.kind) for e in plan] == [
            (0.0, "discovery_blackout"), (5.0, "discovery_restore")]

    def test_apply_rejects_past_events(self):
        sc = _line_scenario()
        sc.run(5.0)
        plan = FaultPlan().add(1.0, "link_down", "src", "mid")
        with pytest.raises(ValueError):
            plan.apply(sc)

    def test_a_plan_that_fails_apply_schedules_nothing(self):
        """Every event is checked before any is scheduled: a bad later
        event does not leave the good earlier ones behind."""
        sc = build_chaos_scenario(seed=1)
        pending = sc.sched.pending
        plan = (FaultPlan().add(1.0, "link_down", "core", "agg_a")
                .add(2.0, "controller_kill", name="nosuch"))
        with pytest.raises(ValueError, match="unknown controller 'nosuch'"):
            plan.apply(sc)
        assert sc.sched.pending == pending

    def test_adversarial_kinds_round_trip(self):
        plan = (
            FaultPlan()
            .add(10.0, "byzantine_start", "XL", "lie_low+disobey")
            .add(40.0, "receiver_join", "XL")
            .add(20.0, "receiver_leave", "XL")
            .add(50.0, "byzantine_start", "XS", mode="lie_high")
        )
        rows = json.loads(json.dumps(plan.to_dicts()))
        rebuilt = FaultPlan.from_dicts(rows)
        assert rebuilt.to_dicts() == plan.to_dicts()
        assert [e.kind for e in plan] == [
            "byzantine_start", "receiver_leave",
            "receiver_join", "byzantine_start",
        ]

    def test_adversarial_clear_times(self):
        plan = (
            FaultPlan()
            .add(10.0, "receiver_leave", "XL")
            .add(20.0, "receiver_join", "XL")
            .add(25.0, "receiver_leave", "XL")  # re-broken: 20 not a clear
            .add(35.0, "receiver_join", "XL")
            .add(30.0, "byzantine_start", "XS", "lie_low")  # never cleared
            .add(45.0, "receiver_join", "XS")
        )
        assert plan.clear_times() == [35.0, 45.0]
        assert (20.0, "receiver_join") in [(e.time, e.kind) for e in plan]


# ----------------------------------------------------------------------
# Injectors over a live scenario
# ----------------------------------------------------------------------
def _line_scenario(seed=1, access_bw=500e3):
    """src -- mid -- rcv with one session, controller at src."""
    sc = Scenario(seed=seed)
    for n in ("src", "mid", "rcv"):
        sc.add_node(n)
    sc.add_link("src", "mid", bandwidth=10e6)
    sc.add_link("mid", "rcv", bandwidth=access_bw)
    sess = sc.add_session("src", traffic="cbr")
    sc.attach_controller("src")
    sc.add_receiver(sess.session_id, "rcv", receiver_id="R")
    return sc


def _standby_scenario(reregister_after=None):
    """:func:`_line_scenario` plus a standby controller node off ``mid``."""
    sc = Scenario(seed=1)
    for n in ("src", "mid", "standby", "rcv"):
        sc.add_node(n)
    sc.add_link("src", "mid", bandwidth=10e6)
    sc.add_link("standby", "mid", bandwidth=10e6)
    sc.add_link("mid", "rcv", bandwidth=500e3)
    sess = sc.add_session("src", traffic="cbr")
    sc.attach_controller("src", standby_node="standby")
    sc.add_receiver(sess.session_id, "rcv", receiver_id="R", reregister_after=reregister_after)
    return sc


class TestLinkFault:
    def test_down_stops_traffic_and_tears_branch(self):
        sc = _line_scenario()
        plan = FaultPlan().add(10.0, "link_down", "mid", "rcv")
        plan.apply(sc)
        sc.run(20.0)
        handle = sc.receivers[0]
        group = sc.sessions[handle.session_id].groups[0]
        state = sc.mcast.groups[group]
        # Branch to the now-unreachable member was torn down.
        assert ("mid", "rcv") not in state.edges
        before = handle.receiver.total_bytes
        sc.run(5.0)
        assert handle.receiver.total_bytes == before  # nothing arrives

    def test_up_regrafts_and_traffic_resumes(self):
        sc = _line_scenario()
        plan = (FaultPlan().add(10.0, "link_down", "mid", "rcv")
                .add(15.0, "link_up", "mid", "rcv"))
        plan.apply(sc)
        sc.run(30.0)
        handle = sc.receivers[0]
        group = sc.sessions[handle.session_id].groups[0]
        # Membership intent survived the outage: the branch is regrafted.
        assert ("mid", "rcv") in sc.mcast.groups[group].edges
        before = handle.receiver.total_bytes
        sc.run(5.0)
        assert handle.receiver.total_bytes > before

class TestControllerFault:
    def test_failover_promotes_standby(self):
        sc = _standby_scenario(reregister_after=3.0)
        sess = sc.sessions[0]
        primary = sc.controller
        plan = (FaultPlan().add(10.0, "controller_kill")
                .add(12.0, "controller_failover"))
        plan.apply(sc)
        sc.run(30.0)
        standby = sc.controller
        assert standby is not primary
        assert standby.node.name == "standby"
        assert not primary.active and standby.active
        # Cold standby re-learned the receiver from its re-registration.
        assert list(standby.receivers[sess.session_id]) == ["R"]
        agent = sc.receivers[0].agent
        assert agent.controller_node == "standby"
        (heard,) = hears_within(agent.suggestion_times, [12.0], 10.0)["per_fault"]
        assert heard["t_suggestion"] < 10.0

    def test_killed_controller_stays_down_when_the_run_is_split(self):
        # Scenario.run() starts every registered controller; a killed one
        # must not come back because the run was cut in two.
        outcomes = []
        for legs in ((20.0,), (10.0, 10.0)):
            sc = build_chaos_scenario(seed=1)
            FaultPlan().add(5.0, "controller_kill").apply(sc)
            for leg in legs:
                sc.run(leg)
            outcomes.append((sc.controller.active, sc.controller.suggestions_sent))
        assert outcomes[1] == outcomes[0]
        assert outcomes[0][0] is False

    def test_failover_without_standby_raises(self):
        sc = _line_scenario()
        injector = FaultInjector(sc)
        with pytest.raises(ValueError):
            injector.controller_failover()

    def test_failover_without_standby_leaves_the_primary_running(self):
        """The standby is checked first: the primary is not stopped by a
        failover that cannot happen (it used to be, then the call raised)."""
        sc = _line_scenario()
        sc.run(5.0)
        with pytest.raises(ValueError, match="no standby node"):
            FaultInjector(sc).controller_failover()
        assert sc.controller.active

    @pytest.mark.parametrize("kind, kwargs, message", [
        ("controller_kill", {"name": "nosuch"}, "unknown controller 'nosuch'"),
        ("discovery_blackout", {"name": "nosuch"}, "unknown controller 'nosuch'"),
        ("discovery_restore", {"name": "nosuch"}, "unknown controller 'nosuch'"),
        ("controller_failover", {}, "controller 'default' has no standby node"),
    ])
    def test_apply_rejects_a_controller_the_scenario_lacks(self, kind, kwargs, message):
        """Caught when the plan is applied, before anything is scheduled,
        not as a KeyError when the event fires mid-run."""
        sc = _line_scenario()
        pending = sc.sched.pending
        with pytest.raises(ValueError, match=f"{kind}: {message}"):
            FaultPlan().add(5.0, kind, **kwargs).apply(sc)
        assert sc.sched.pending == pending


class TestDiscoveryFault:
    def test_blackout_served_from_last_known_good(self):
        sc = _line_scenario()
        plan = FaultPlan().discovery_outage(10.0, 20.0)
        plan.apply(sc)
        sc.run(19.0)
        ctl = sc.controller
        assert ctl.discovery_failures > 0
        # Cached tree (age bound 30 s) kept every tick serviceable.
        assert ctl.sessions_skipped == 0
        agent = sc.receivers[0].agent
        assert max_suggestion_gap(agent.suggestion_times, 8.0, 19.0) < 5.0

    def test_blackout_beyond_tree_age_skips_sessions(self):
        sc = _line_scenario()
        plan = FaultPlan().discovery_outage(10.0, 50.0)
        plan.apply(sc)
        # The last tree discovered before the outage (t = 9.5) is served
        # while it is at most MAX_TREE_AGE (30 s) old ...
        sc.run(38.0)
        assert sc.controller.discovery_failures > 0
        assert sc.controller.sessions_skipped == 0
        # ... and the session is skipped once the tree is older.
        sc.run(11.0)
        assert sc.controller.sessions_skipped > 0


# ----------------------------------------------------------------------
# Every kind: one method, fired once end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
def test_each_kind_is_exactly_one_injector_method(kind):
    owners = [cls for cls in (FaultInjector, FederationInjector) if kind in kinds_of(cls)]
    assert len(owners) == 1
    assert inspect.isfunction(vars(owners[0])[kind])
    assert not hasattr(FaultPlan, kind)  # add() is the one way to plan it


def test_every_kind_is_fired_by_a_default_plan():
    """A fault kind exists only together with the plan that fires it."""
    fired = set()
    for plan in (default_chaos_plan(), default_churn_plan(churn_receiver_ids(4)),
                 default_attack_plan(), default_fedchaos_plan()):
        fired |= {e.kind for e in plan}
    assert set(KINDS) == fired


def test_every_scenario_kind_fires_once_from_a_replayed_plan():
    plan = (
        FaultPlan()
        .add(10.0, "link_down", "mid", "rcv")
        .add(12.0, "link_up", "mid", "rcv")
        .add(20.0, "discovery_blackout")
        .add(24.0, "discovery_restore")
        .add(28.0, "controller_kill", name="default")
        .add(32.0, "controller_failover", name="default")
        .add(36.0, "byzantine_start", "R", "lie_high")
        .add(50.0, "receiver_leave", "R")
        .add(54.0, "receiver_join", "R")
    )
    assert sorted(set(e.kind for e in plan)) == sorted(kinds_of(FaultInjector))
    replayed = FaultPlan.from_dicts(json.loads(json.dumps(plan.to_dicts())))
    assert replayed.to_dicts() == plan.to_dicts()

    sc = _standby_scenario(reregister_after=3.0)
    injector = replayed.apply(sc)
    sc.run(11.0)
    assert not sc.network.link("mid", "rcv").up
    sc.run(12.0)  # t = 23
    assert not sc.controller.discovery.available
    sc.run(60.0 - sc.sched.now)

    assert [(t, k) for t, k, _ in injector.log] == [(e.time, e.kind) for e in plan]
    assert sc.network.link("mid", "rcv").up
    assert sc.controller.discovery.available
    assert sc.controller.node.name == "standby"
    agent = sc.receivers[0].agent
    # The rejoin built a fresh, honest agent.
    assert agent.active and agent.byzantine_mode is None
    assert sc.receivers[0].receiver.level >= 1


# ----------------------------------------------------------------------
# Registration backoff
# ----------------------------------------------------------------------
class TestRegisterBackoff:
    def test_retry_spacing_grows_exponentially_to_cap(self):
        sc = _line_scenario()
        # Kill the controller the instant it starts: nobody ever listens,
        # so the agent keeps retrying forever.
        FaultPlan().add(0.0, "controller_kill").apply(sc)
        sc.run(40.0)
        agent = sc.receivers[0].agent
        assert not agent.registered
        assert agent.register_attempts >= 6  # round of 5 + cooled-off restart
        # A full round spans backoff * (2^5 - 1) plus the cool-off, far more
        # than retries-at-fixed-backoff would: attempts are not equally
        # spaced.  With jitter <= 25 %, attempts within 40 s stay bounded.
        max_attempts = 40.0 / (0.75 * REGISTER_BACKOFF)
        assert agent.register_attempts < max_attempts


# ----------------------------------------------------------------------
# Recovery metric helpers
# ----------------------------------------------------------------------
class TestRecoveryMetrics:
    def test_hears_within_times_the_first_suggestion_after_each_ref(self):
        heard = hears_within([1.0, 5.0, 9.0], [4.0, 9.0], 2.0)
        assert [e["t_suggestion"] for e in heard["per_fault"]] == [
            pytest.approx(1.0), float("inf")]
        assert [e["recovered"] for e in heard["per_fault"]] == [True, False]
        assert heard["recovered_all"] is False
        assert hears_within([1.0], [], 2.0)["recovered_all"] is True

    def test_max_suggestion_gap_includes_edges(self):
        assert max_suggestion_gap([2.0, 6.0], 0.0, 10.0) == 4.0
        assert max_suggestion_gap([7.0], 0.0, 10.0) == 7.0  # leading
        assert max_suggestion_gap([3.0], 0.0, 10.0) == 7.0  # trailing
        assert max_suggestion_gap([], 0.0, 10.0) == 10.0

    def test_gap_window_validated(self):
        with pytest.raises(ValueError):
            max_suggestion_gap([1.0], 5.0, 5.0)


# ----------------------------------------------------------------------
# The acceptance storm
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    def test_seeded_storm_recovers_within_three_intervals(self):
        result = run_chaos(seed=1, duration=120.0)
        # Controller crash cleared by the failover at 22, the flap by the
        # final link_up at 49, the discovery blackout at 80.
        assert result["clear_times"] == [22.0, 49.0, 80.0]
        assert result["ok"], result
        for rid, r in result["receivers"].items():
            for entry in r["recovery"]["per_fault"]:
                assert entry["t_suggestion"] <= result["recover_within"], (
                    rid, entry,
                )

    def test_storm_is_deterministic(self):
        a = json.dumps(run_chaos(seed=1, duration=60.0), sort_keys=True)
        b = json.dumps(run_chaos(seed=1, duration=60.0), sort_keys=True)
        assert a == b

    def test_fault_log_matches_plan(self):
        sc = build_chaos_scenario(seed=1)
        plan = default_chaos_plan()
        injector = plan.apply(sc)
        sc.run(90.0)
        assert [(t, kind) for t, kind, _ in injector.log] == [
            (e.time, e.kind) for e in plan
        ]
