"""Integration tests for the Scenario facade and the paper topologies."""

import pytest

from repro.baselines.static import StaticController
from repro.experiments.scenario import Scenario
from repro.experiments.topologies import build_topology_a, build_topology_b


def small_scenario():
    sc = Scenario(seed=1)
    sc.add_node("s")
    sc.add_node("m")
    sc.add_node("r")
    sc.add_link("s", "m", bandwidth=10e6, delay=0.05)
    sc.add_link("m", "r", bandwidth=10e6, delay=0.05)
    return sc


class TestScenario:
    def test_session_and_receiver_lifecycle(self):
        sc = small_scenario()
        sess = sc.add_session("s", traffic="cbr")
        sc.attach_controller("s")
        h = sc.add_receiver(sess.session_id, "r")
        res = sc.run(30.0)
        assert h.receiver.total_bytes > 0
        assert h.receiver.level >= 1
        assert res.end_time == 30.0

    def test_run_can_be_resumed(self):
        sc = small_scenario()
        sess = sc.add_session("s")
        sc.attach_controller("s")
        sc.add_receiver(sess.session_id, "r")
        sc.run(10.0)
        res = sc.run(10.0)
        assert res.end_time == 20.0

    def test_controlled_receiver_requires_controller(self):
        sc = small_scenario()
        sess = sc.add_session("s")
        sc.add_receiver(sess.session_id, "r", mode="controlled")
        with pytest.raises(ValueError, match="attach_controller"):
            sc.run(5.0)

    def test_static_receiver_stays_put(self):
        sc = small_scenario()
        sess = sc.add_session("s")
        h = sc.add_receiver(sess.session_id, "r", mode="static", initial_level=2)
        sc.run(30.0)
        assert h.receiver.level == 2
        assert h.trace.num_changes(1.0, 30.0) == 0

    def test_unknown_mode_rejected(self):
        sc = small_scenario()
        sess = sc.add_session("s")
        with pytest.raises(ValueError):
            sc.add_receiver(sess.session_id, "r", mode="bogus")

    def test_duplicate_controller_rejected(self):
        sc = small_scenario()
        sc.add_session("s")
        sc.attach_controller("s")
        with pytest.raises(ValueError):
            sc.attach_controller("s")

    def test_duplicate_session_id_rejected(self):
        sc = small_scenario()
        sc.add_session("s", session_id="X")
        with pytest.raises(ValueError):
            sc.add_session("s", session_id="X")

    def test_invalid_duration(self):
        sc = small_scenario()
        with pytest.raises(ValueError):
            sc.run(0.0)

    def test_custom_algorithm_used(self):
        sc = small_scenario()
        sess = sc.add_session("s")
        sc.attach_controller("s", algorithm=StaticController(level=3))
        h = sc.add_receiver(sess.session_id, "r")
        sc.run(30.0)
        assert h.receiver.level == 3

    def test_result_accessors(self):
        sc = small_scenario()
        sess = sc.add_session("s")
        sc.attach_controller("s")
        h = sc.add_receiver(sess.session_id, "r")
        res = sc.run(20.0)
        assert res.trace(h.receiver_id) is h.trace
        with pytest.raises(KeyError):
            res.trace("ghost")
        opt = res.optimal_levels()
        assert opt[(sess.session_id, h.receiver_id)] == 6  # fat links
        assert res.mean_deviation(5.0) >= 0.0
        assert res.deviation_of(h.receiver_id, 5.0) >= 0.0
        with pytest.raises(KeyError):
            res.deviation_of("ghost", 0.0)
        count, gap = res.stability()
        assert count >= 0 and gap > 0
        assert "session" in res.summary()

    def test_deterministic_given_seed(self):
        def run_once():
            sc = small_scenario()
            sess = sc.add_session("s", traffic="vbr", peak_to_mean=3)
            sc.attach_controller("s")
            h = sc.add_receiver(sess.session_id, "r")
            sc.run(40.0)
            return list(zip(h.trace.times, h.trace.values)), h.receiver.total_bytes

        assert run_once() == run_once()


class TestPaperTopologies:
    def test_topology_a_structure(self):
        sc = build_topology_a(n_receivers=4, seed=0)
        assert len(sc.receivers) == 4
        ids = [h.receiver_id for h in sc.receivers]
        assert ids == ["A0", "A1", "B0", "B1"]
        res = sc.run(10.0)
        opt = res.optimal_levels()
        sid = sc.receivers[0].session_id
        assert opt[(sid, "A0")] == 4
        assert opt[(sid, "B0")] == 2

    def test_topology_a_odd_split(self):
        sc = build_topology_a(n_receivers=3, seed=0)
        ids = [h.receiver_id for h in sc.receivers]
        assert ids == ["A0", "A1", "B0"]

    def test_topology_a_validation(self):
        with pytest.raises(ValueError):
            build_topology_a(n_receivers=0)

    def test_topology_b_structure(self):
        sc = build_topology_b(n_sessions=3, seed=0)
        assert len(sc.sessions) == 3
        assert len(sc.receivers) == 3
        # Shared link capacity scales with session count.
        assert sc.network.link("x", "y").bandwidth == pytest.approx(3 * 500e3)
        res = sc.run(10.0)
        opt = res.optimal_levels()
        assert all(level == 4 for level in opt.values())

    def test_topology_b_validation(self):
        with pytest.raises(ValueError):
            build_topology_b(n_sessions=0)

    def test_topology_a_converges_toward_optimum(self):
        sc = build_topology_a(n_receivers=2, traffic="cbr", seed=3)
        res = sc.run(200.0)
        # Class A should average near 4, class B near 2, after warmup.
        a_mean = sc.receivers[0].trace.time_weighted_mean(60.0, 200.0)
        b_mean = sc.receivers[1].trace.time_weighted_mean(60.0, 200.0)
        assert 3.0 <= a_mean <= 5.0
        assert 1.2 <= b_mean <= 3.0
        assert res.mean_deviation(60.0, 200.0) < 0.5

    def test_topology_b_roughly_fair(self):
        sc = build_topology_b(n_sessions=2, traffic="cbr", seed=3)
        res = sc.run(200.0)
        means = [h.trace.time_weighted_mean(60.0, 200.0) for h in sc.receivers]
        assert all(2.0 <= m <= 5.5 for m in means), means

    def test_rlm_mode_runs(self):
        sc = build_topology_a(n_receivers=2, receiver_mode="rlm", seed=1)
        res = sc.run(100.0)
        assert all(h.agent is not None for h in sc.receivers)
        assert all(h.receiver.total_bytes > 0 for h in sc.receivers)
