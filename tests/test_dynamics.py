"""Dynamic membership and transient disturbances: TopoSense "adapts to transient
traffic and competing sessions" (paper §III)."""

from repro.experiments.scenario import Scenario
from repro.experiments.topologies import BACKBONE_BW
from repro.faults.plan import FaultPlan


def shared_link_scenario(n_sessions=2, per_session=500e3, seed=3):
    sc = Scenario(seed=seed)
    sc.add_node("x")
    sc.add_node("y")
    sc.add_link("x", "y", bandwidth=n_sessions * per_session)
    sessions = []
    for i in range(n_sessions):
        sc.add_node(f"s{i}")
        sc.add_node(f"r{i}")
        sc.add_link(f"s{i}", "x", bandwidth=BACKBONE_BW)
        sc.add_link("y", f"r{i}", bandwidth=BACKBONE_BW)
        sessions.append(sc.add_session(f"s{i}", traffic="cbr"))
    sc.attach_controller("s0")
    return sc, sessions


class TestLateJoiner:
    def test_receiver_added_mid_run_converges(self):
        sc, sessions = shared_link_scenario(n_sessions=2)
        h0 = sc.add_receiver(sessions[0].session_id, "r0", receiver_id="early")
        sc.run(120.0)
        # Session 1's receiver arrives late.
        h1 = sc.add_receiver(sessions[1].session_id, "r1", receiver_id="late")
        sc.run(180.0)
        late_mean = h1.trace.time_weighted_mean(200.0, 300.0)
        assert late_mean >= 2.5, late_mean
        # The incumbent was not starved by the newcomer.
        early_mean = h0.trace.time_weighted_mean(200.0, 300.0)
        assert early_mean >= 2.5, early_mean

    def test_departure_frees_capacity(self):
        # 2 sessions on a small shared link (4 layers total): sharing caps
        # each at ~2; after one departs the survivor can climb.
        sc, sessions = shared_link_scenario(n_sessions=2, per_session=250e3)
        h0 = sc.add_receiver(sessions[0].session_id, "r0", receiver_id="stay")
        h1 = sc.add_receiver(sessions[1].session_id, "r1", receiver_id="leave")
        sc.run(150.0)
        shared_mean = h0.trace.time_weighted_mean(60.0, 150.0)
        sc.detach_receiver(h1)
        sc.run(200.0)
        assert h1.receiver.level == 0
        alone_mean = h0.trace.time_weighted_mean(250.0, 350.0)
        assert alone_mean > shared_mean + 0.4, (shared_mean, alone_mean)

    def test_departed_receiver_stops_reporting(self):
        sc, sessions = shared_link_scenario(n_sessions=2)
        h0 = sc.add_receiver(sessions[0].session_id, "r0", receiver_id="a")
        h1 = sc.add_receiver(sessions[1].session_id, "r1", receiver_id="b")
        sc.run(40.0)
        sc.detach_receiver(h1)
        reports_at_detach = h1.agent.reports_sent
        sc.run(40.0)
        assert h1.agent.reports_sent == reports_at_detach
        assert h0.agent.reports_sent > 0


class TestCrossTrafficDisturbance:
    def test_controller_recovers_after_transient_flow(self):
        """A transient flow takes most of the bottleneck for a while; the
        receiver backs off, then re-converges after it ends."""
        sc = Scenario(seed=9)
        for name in ("src", "cross", "isp", "home"):
            sc.add_node(name)
        sc.add_link("src", "isp", bandwidth=10e6)
        sc.add_link("cross", "isp", bandwidth=10e6)
        sc.add_link("isp", "home", bandwidth=500e3)
        sess = sc.add_session("src", traffic="cbr")
        sc.attach_controller("src")
        h = sc.add_receiver(sess.session_id, "home", receiver_id="V")
        sc.run(120.0)
        # A static 4-layer (480 Kb/s) subscription shares the bottleneck
        # for 70 s, then leaves.
        flow = sc.add_session("cross", traffic="cbr")
        sc.add_receiver(flow.session_id, "home", receiver_id="F",
                        initial_level=4, mode="static")
        FaultPlan().add(190.0, "receiver_leave", "F").apply(sc)
        sc.run(250.0)
        before = h.trace.time_weighted_mean(60.0, 120.0)
        during = h.trace.time_weighted_mean(150.0, 190.0)
        after = h.trace.time_weighted_mean(270.0, 370.0)
        assert before >= 3.2, before
        assert during < before - 0.7, (before, during)
        assert after > during + 0.5, (during, after)


class TestLateSession:
    def test_session_added_mid_run(self):
        """A whole competing session (source + receiver) arrives late and
        both sessions end up sharing the link."""
        sc, sessions = shared_link_scenario(n_sessions=2)
        h0 = sc.add_receiver(sessions[0].session_id, "r0", receiver_id="early")
        sc.run(100.0)
        late_sess = sc.add_session("s1", traffic="cbr", session_id="late")
        h1 = sc.add_receiver("late", "r1", receiver_id="newcomer")
        sc.run(200.0)
        assert h1.receiver.total_bytes > 0
        assert h1.trace.time_weighted_mean(200.0, 300.0) >= 2.0
        assert h0.trace.time_weighted_mean(200.0, 300.0) >= 2.0
