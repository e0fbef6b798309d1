"""Unit and integration tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.obs import bus as obs_bus
from repro.obs.bus import BusEvent, EventBus
from repro.obs.profile import Profiler
from repro.obs.run import RunRecorder, fault_log_entries, git_rev, sample_links
from repro.simnet.engine import Scheduler


@pytest.fixture
def built(monkeypatch):
    """Every BusEvent the bus constructs while the test runs."""
    made = []

    class Counted(BusEvent):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(obs_bus, "BusEvent", Counted)
    return made


class TestEventBus:
    def test_exact_topic_delivery(self):
        bus = EventBus()
        got = []
        bus.subscribe("link.drop", got.append)
        bus.emit("link.drop", 1.5, link="a->b", reason="queue_full")
        bus.emit("link.up", 2.0, link="a->b")
        assert len(got) == 1
        ev = got[0]
        assert isinstance(ev, BusEvent)
        assert ev.time == 1.5
        assert ev.topic == "link.drop"
        assert ev.data == {"link": "a->b", "reason": "queue_full"}

    def test_prefix_wildcard(self):
        bus = EventBus()
        got = []
        bus.subscribe("ctrl.*", got.append)
        bus.emit("ctrl.tick.start", 0.0)
        bus.emit("ctrl.suggestion", 1.0)
        bus.emit("recv.join", 2.0)
        assert [e.topic for e in got] == ["ctrl.tick.start", "ctrl.suggestion"]

    def test_star_matches_everything(self):
        bus = EventBus()
        got = []
        bus.subscribe("*", got.append)
        bus.emit("anything.at.all", 0.0)
        assert [e.topic for e in got] == ["anything.at.all"]

    def test_no_subscribers_is_free(self, built):
        bus = EventBus()
        bus.emit("link.drop", 0.0, size=1000)
        assert built == []

    def test_unmatched_topic_not_counted(self, built):
        bus = EventBus()
        bus.subscribe("ctrl.*", lambda ev: None)
        bus.emit("link.drop", 0.0)
        assert built == []
        bus.emit("ctrl.tick.start", 0.0)
        assert [ev.topic for ev in built] == ["ctrl.tick.start"]

    def test_unsubscribe(self):
        bus = EventBus()
        got = []
        fn = bus.subscribe("a.b", got.append)
        bus.emit("a.b", 0.0)
        bus.unsubscribe("a.b", fn)
        bus.emit("a.b", 1.0)
        assert len(got) == 1
        # Unknown pairs are ignored.
        bus.unsubscribe("a.b", fn)
        bus.unsubscribe("zzz", fn)

    def test_route_cache_invalidated_by_subscribe(self):
        bus = EventBus()
        first = []
        bus.subscribe("a.*", first.append)
        bus.emit("a.x", 0.0)  # resolves and caches the a.x route
        second = []
        bus.subscribe("a.x", second.append)
        bus.emit("a.x", 1.0)
        assert len(first) == 2
        assert len(second) == 1

    def test_wants(self):
        bus = EventBus()
        assert not bus.wants("a.b")
        bus.subscribe("a.*", lambda ev: None)
        assert bus.wants("a.b")
        assert not bus.wants("b.a")

    def test_invalid_patterns_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError):
            bus.subscribe("", lambda ev: None)
        with pytest.raises(ValueError):
            bus.subscribe("a.*.b", lambda ev: None)
        with pytest.raises(ValueError):
            bus.subscribe("a*", lambda ev: None)


class TestTopicRegistry:
    def test_default_topics_derived_from_registry(self):
        from repro.obs.bus import default_record_patterns
        from repro.obs.run import DEFAULT_TOPICS

        assert DEFAULT_TOPICS == default_record_patterns()
        # everything except the sched.dispatch firehose, one family each
        assert DEFAULT_TOPICS == (
            "ctrl.*", "fault.*", "federation.*", "guard.*", "link.*",
            "recv.*", "tree.*", "workload.*"
        )

    def test_registry_covers_known_topics(self):
        from repro.obs.bus import topic_is_known

        assert topic_is_known("link.drop")
        assert topic_is_known("fault.link_down")   # wildcard family
        assert topic_is_known("guard.")            # f-string literal head
        assert not topic_is_known("mystery.topic")

    def test_render_topic_table_shape(self):
        from repro.obs.bus import TOPIC_REGISTRY, render_topic_table

        table = render_topic_table()
        lines = table.splitlines()
        assert lines[0] == "| topic | emitted by | payload |"
        assert len(lines) == 2 + len(TOPIC_REGISTRY)
        assert any("`ctrl.tick.end`" in line for line in lines)


class TestMetrics:
    def test_events_counted_per_topic(self, tmp_path):
        rec = RunRecorder("demo", root=str(tmp_path))
        rec.log_event(1.0, "ctrl.x")
        rec.log_event(2.0, "ctrl.x")
        rec.log_event(2.0, "link.y")
        metrics = json.loads((rec.finalize() / "metrics.json").read_text())
        assert metrics["metrics"] == {
            "counters": {"events.ctrl.x": 2.0, "events.link.y": 1.0},
            "n_intervals": 0,
        }

    def test_mark_interval_deltas(self, tmp_path):
        rec = RunRecorder("demo", root=str(tmp_path))
        sc = small_scenario()
        rec.attach(sc, sample_interval=2.0)
        sc.run(10.0)
        metrics = json.loads((rec.finalize() / "metrics.json").read_text())
        intervals = metrics["intervals"]
        assert [snap["t"] for snap in intervals] == [2.0, 4.0, 6.0, 8.0, 10.0]
        # Each tick logs one sample per link just before it marks.
        n_links = len(sc.network.links)
        assert [snap["deltas"]["events.link.sample"] for snap in intervals] == [
            float(n_links)
        ] * 5
        for name, total in metrics["metrics"]["counters"].items():
            assert sum(snap["deltas"].get(name, 0.0) for snap in intervals) <= total
        assert metrics["metrics"]["n_intervals"] == 5


class TestProfiler:
    def test_add_and_total(self):
        p = Profiler()
        p.add("a", 0.5)
        p.add("a", 0.25)
        assert p.total("a") == pytest.approx(0.75)
        assert p.total("missing") == 0.0
        assert p.summary()["a"]["calls"] == 2

    def test_lap_chains(self):
        p = Profiler()
        t0 = 0.0
        t1 = p.lap("stage1", t0)
        t2 = p.lap("stage2", t1)
        assert t2 >= t1 > 0.0
        assert p.total("stage1") > 0.0
        assert p.total("stage2") >= 0.0

    def test_span_context_manager(self):
        p = Profiler()
        with p.span("block"):
            pass
        assert p.summary("blo")["block"]["calls"] == 1
        assert p.summary("zzz") == {}

    def test_reset(self):
        p = Profiler()
        p.add("a", 1.0)
        p.reset()
        assert p.total("a") == 0.0


def small_scenario():
    from repro.experiments.scenario import Scenario

    sc = Scenario(seed=1)
    sc.add_node("s")
    sc.add_node("m")
    sc.add_node("r")
    sc.add_link("s", "m", bandwidth=10e6, delay=0.05)
    sc.add_link("m", "r", bandwidth=10e6, delay=0.05)
    sess = sc.add_session("s", traffic="cbr")
    sc.attach_controller("s")
    sc.add_receiver(sess.session_id, "r")
    return sc


class TestInstrumentation:
    def test_unobserved_scenario_has_no_bus(self):
        sc = small_scenario()
        sc.run(10.0)
        assert sc.sched.bus is None
        assert sc.sched.profiler is None

    def test_bus_sees_control_plane_and_receiver_events(self):
        sc = small_scenario()
        bus = EventBus()
        topics = []
        bus.subscribe("*", lambda ev: topics.append(ev.topic))
        sc.sched.bus = bus
        sc.run(30.0)
        seen = set(topics)
        assert "ctrl.register" in seen
        assert "ctrl.report" in seen
        assert "ctrl.tick.start" in seen
        assert "ctrl.tick.end" in seen
        assert "ctrl.suggestion" in seen
        assert "recv.join" in seen
        assert "sched.dispatch" in seen

    def test_instrumented_run_matches_unobserved_run(self):
        plain = small_scenario()
        plain.run(30.0)
        observed = small_scenario()
        observed.sched.bus = EventBus()
        observed.sched.bus.subscribe("*", lambda ev: None)
        observed.run(30.0)
        assert observed.sched.events_processed == plain.sched.events_processed
        assert (
            observed.receivers[0].receiver.level == plain.receivers[0].receiver.level
        )

    def test_profiler_charges_stages_and_tick(self):
        sc = small_scenario()
        prof = Profiler()
        sc.sched.profiler = prof
        controller = sc.controller
        controller.profiler = prof
        controller.algorithm.profiler = prof
        sc.run(20.0)
        assert prof.total("sched.run") > 0.0
        assert prof.total("ctrl.tick") > 0.0
        stages = prof.summary("toposense.")
        assert set(stages) == {
            "toposense.stage1_congestion",
            "toposense.stage2_capacity",
            "toposense.stage3_bottleneck",
            "toposense.stage4_fair_share",
            "toposense.stage5_demand",
            "toposense.stage6_supply",
        }

    def test_link_drop_events(self):
        sc = small_scenario()
        bus = EventBus()
        drops = []
        bus.subscribe("link.drop", drops.append)
        sc.sched.bus = bus
        sc.run(5.0)
        link = next(iter(sc.network.links.values()))
        link.set_down()
        from repro.simnet.packet import Packet

        link.send(Packet(src="s", dst="m", size=100, kind="data"))
        assert drops and drops[-1].data["reason"] == "link_down"

    def test_sample_links_rows(self):
        sc = small_scenario()
        sc.run(10.0)
        rows = sample_links(sc.network, 10.0)
        assert len(rows) == len(sc.network.links)
        row = rows[0]
        assert set(row) >= {"link", "up", "utilization", "tx_packets", "dropped"}
        assert 0.0 <= row["utilization"] <= 1.0


class TestRunRecorder:
    def test_fault_log_entries(self):
        log = [(1.0, "link_down", "core-agg_a"), (2.5, "link_up", "core-agg_a")]
        assert fault_log_entries(log) == [
            {"time": 1.0, "kind": "link_down", "detail": "core-agg_a"},
            {"time": 2.5, "kind": "link_up", "detail": "core-agg_a"},
        ]

    def test_git_rev_shape(self):
        rev = git_rev()
        assert rev == "unknown" or all(c in "0123456789abcdef" for c in rev)

    def test_artifact_directory(self, tmp_path):
        rec = RunRecorder("demo", seed=7, root=str(tmp_path), args={"duration": 5.0})
        sc = small_scenario()
        rec.attach(sc, sample_interval=2.0)
        sc.run(10.0)
        run_dir = rec.finalize(result={"ok": True})
        assert run_dir.parent == tmp_path
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["experiment"] == "demo"
        assert manifest["seed"] == 7
        assert manifest["args"] == {"duration": 5.0}
        assert manifest["sim_seconds"] == 10.0
        assert manifest["events_logged"] == rec.events_logged > 0
        assert manifest["sim_events_processed"] == sc.sched.events_processed
        result = json.loads((run_dir / "result.json").read_text())
        assert result == {"ok": True}
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["metrics"]["counters"]
        # mark_interval ran with the sampler: one entry per 2 s.
        assert len(metrics["intervals"]) == 5
        lines = (run_dir / "events.jsonl").read_text().splitlines()
        assert len(lines) == rec.events_logged
        entry = json.loads(lines[0])
        assert {"t", "topic"} <= set(entry)

    def test_default_topics_exclude_dispatch(self, tmp_path):
        rec = RunRecorder("demo", root=str(tmp_path))
        sc = small_scenario()
        rec.attach(sc)
        sc.run(5.0)
        run_dir = rec.finalize()
        topics = {
            json.loads(line)["topic"]
            for line in (run_dir / "events.jsonl").read_text().splitlines()
        }
        assert "sched.dispatch" not in topics
        assert any(t.startswith("ctrl.") for t in topics)

    def test_finalize_idempotent(self, tmp_path):
        rec = RunRecorder("demo", root=str(tmp_path))
        assert rec.finalize() == rec.finalize()

    def test_colliding_names_deduped(self, tmp_path, monkeypatch):
        import time as time_mod

        monkeypatch.setattr(time_mod, "strftime", lambda fmt, *a: "fixed")
        a = RunRecorder("x", root=str(tmp_path))
        b = RunRecorder("x", root=str(tmp_path))
        a.finalize()
        b.finalize()
        assert a.dir != b.dir

    def test_record_fault_log(self, tmp_path):
        from repro.faults.plan import FaultPlan

        rec = RunRecorder("chaos", root=str(tmp_path))
        sc = small_scenario()
        FaultPlan().add(3.0, "controller_kill").apply(sc)
        rec.attach(sc)
        sc.run(5.0)
        run_dir = rec.finalize()
        rows = [json.loads(line)
                for line in (run_dir / "events.jsonl").read_text().splitlines()]
        faults = [row for row in rows if row["topic"].startswith("fault.")]
        assert faults == [{"t": 3.0, "topic": "fault.controller_kill", "detail": ""}]

    def test_chaos_artifact_logs_faults_in_time_order(self, tmp_path):
        from repro.experiments.chaos import run_chaos

        rec = RunRecorder("chaos", seed=1, root=str(tmp_path))
        result = run_chaos(seed=1, duration=50.0, recorder=rec)
        run_dir = rec.finalize(result=result)
        rows = [json.loads(line)
                for line in (run_dir / "events.jsonl").read_text().splitlines()]
        times = [row["t"] for row in rows]
        assert times == sorted(times)
        faults = [(row["t"], row["topic"], row["detail"])
                  for row in rows if row["topic"].startswith("fault.")]
        assert faults == [(f["time"], f"fault.{f['kind']}", f["detail"])
                          for f in result["fault_log"]]
        assert len(faults) == 6

    def test_fedchaos_artifact_holds_its_faults(self, tmp_path):
        from repro.federation.chaos import run_fedchaos

        rec = RunRecorder("fedchaos", seed=1, root=str(tmp_path))
        result = run_fedchaos(seed=1, n_domains=2, receivers_per_domain=4,
                              loss_rates=(0.2,), partition_rounds=(3,), recorder=rec)
        run_dir = rec.finalize(result=result)
        rows = [json.loads(line)
                for line in (run_dir / "events.jsonl").read_text().splitlines()]
        faults = [(row["t"], row["topic"][len("fault."):], row["detail"])
                  for row in rows if row["topic"].startswith("fault.")]
        (point,) = result["points"]
        assert faults == [(f["time"], f["kind"], f["detail"])
                          for f in point["faulted"]["fault_log"]]
        assert len(faults) == 5 and all(kind.startswith("fed_") for _, kind, _ in faults)

    def test_sample_interval_validated(self, tmp_path):
        rec = RunRecorder("demo", root=str(tmp_path))
        with pytest.raises(ValueError):
            rec.attach(small_scenario(), sample_interval=0.0)
        rec.finalize()


class TestSchedulerObservability:
    def test_dispatch_events_emitted_when_subscribed(self):
        sched = Scheduler()
        bus = EventBus()
        seen = []
        bus.subscribe("sched.dispatch", seen.append)
        sched.bus = bus
        sched.after(1.0, lambda: None)
        sched.run(until=2.0)
        assert len(seen) == 1
        assert seen[0].data["fn"].endswith("<lambda>")

    def test_no_dispatch_events_without_subscriber(self, built):
        sched = Scheduler()
        bus = EventBus()
        bus.subscribe("ctrl.*", lambda ev: None)
        sched.bus = bus
        sched.after(1.0, lambda: None)
        sched.run(until=2.0)
        assert built == []
