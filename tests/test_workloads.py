"""Tests for the declarative workload engine: seeded builders, spec
round-tripping, the wireless edge link, shared membership mechanics (the
``membership_churn`` refactor regression), and deterministic replay."""

import json

import pytest

from repro.experiments.membership import churn_events
from repro.experiments.scenario import Scenario
from repro.faults.plan import FaultPlan
from repro.obs.bus import EventBus
from repro.simnet.link import DROP_REASONS, DROP_WIRELESS
from repro.simnet.queues import DropTailQueue
from repro.simnet.rng import Pcg64, stream_seed, zipf_weights
from repro.simnet.wireless import WirelessEdgeLink
from repro.workloads.builders import assign_sessions, diurnal_leave_times, flash_crowd_times
from repro.workloads import runner as runner_mod
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import ReceiverSpec, WorkloadEvent, WorkloadSpec


# ----------------------------------------------------------------------
# Seeded builders (satellite: determinism / round-trip / error paths)
# ----------------------------------------------------------------------
def test_flash_crowd_times_deterministic_per_seed():
    one = flash_crowd_times(100, 10.0, ramp=3.0, shape="exp", seed=5)
    two = flash_crowd_times(100, 10.0, ramp=3.0, shape="exp", seed=5)
    other = flash_crowd_times(100, 10.0, ramp=3.0, shape="exp", seed=6)
    assert one == two
    assert one != other
    assert len(one) == 100
    assert all(10.0 <= t < 13.0 for t in one)
    assert one == sorted(one)


@pytest.mark.parametrize("shape", ["linear", "exp"])
def test_flash_crowd_times_shapes_stay_in_window(shape):
    times = flash_crowd_times(64, 2.0, ramp=4.0, shape=shape, seed=1)
    assert len(times) == 64
    assert all(2.0 <= t <= 6.0 for t in times)


def test_flash_crowd_times_error_paths():
    with pytest.raises(ValueError):
        flash_crowd_times(0, 1.0)
    with pytest.raises(ValueError):
        flash_crowd_times(10, 1.0, ramp=0.0)
    with pytest.raises(ValueError):
        flash_crowd_times(10, -1.0)
    with pytest.raises(ValueError):
        flash_crowd_times(10, 1.0, shape="sigmoid")


def test_zipf_weights_error_paths():
    with pytest.raises(ValueError):
        zipf_weights(0, 1.1)
    with pytest.raises(ValueError):
        zipf_weights(4, 0.0)
    with pytest.raises(ValueError):
        zipf_weights(4, -1.0)


def test_zipf_sampler_prefers_early_sessions():
    pairs = assign_sessions([f"r{i}" for i in range(500)],
                            ["s0", "s1", "s2"], zipf_s=1.1, seed=3)
    counts = {}
    for _rid, sid in pairs:
        counts[sid] = counts.get(sid, 0) + 1
    assert counts["s0"] > counts["s1"] > counts.get("s2", 0)
    # Determinism under a fixed seed.
    assert pairs == assign_sessions([f"r{i}" for i in range(500)],
                                    ["s0", "s1", "s2"], zipf_s=1.1, seed=3)


def test_assign_sessions_error_paths():
    with pytest.raises(ValueError):
        assign_sessions([], ["s0"])
    with pytest.raises(ValueError):
        assign_sessions(["r0"], [])
    with pytest.raises(ValueError):
        assign_sessions(["r0"], ["s0"], zipf_s=0.0)


def test_diurnal_leave_times_deterministic_and_bounded():
    one = diurnal_leave_times(10.0, 70.0, period=30.0, peak_rate=0.8,
                              trough_rate=0.1, seed=2)
    assert one == diurnal_leave_times(10.0, 70.0, period=30.0, peak_rate=0.8,
                                      trough_rate=0.1, seed=2)
    assert all(10.0 <= t < 70.0 for t in one)
    assert one == sorted(one)


# ----------------------------------------------------------------------
# WorkloadSpec: validation + JSON round-trip
# ----------------------------------------------------------------------
def _small_spec(size=12, seed=4):
    spec = WorkloadSpec()
    spec.zipf_sessions([f"c{i}" for i in range(size)], ["e0", "e1"],
                       ["s0", "s1"], seed=seed)
    spec.flash_crowd(at=5.0, size=size, ramp=2.0, seed=seed + 1)
    spec.diurnal_churn(10.0, 40.0, period=15.0, peak_rate=0.5,
                       trough_rate=0.05, seed=seed + 2)
    return spec


def test_spec_json_round_trip_is_equal():
    spec = _small_spec()
    data = json.loads(json.dumps(spec.to_dict()))
    clone = WorkloadSpec.from_dict(data)
    assert clone.to_dict() == spec.to_dict()
    assert [(e.time, e.kind, e.receiver_id) for e in clone] == \
           [(e.time, e.kind, e.receiver_id) for e in spec]


def test_spec_rejects_unknown_and_duplicate_receivers():
    spec = WorkloadSpec()
    spec.add_receiver("c0", "e0", "s0")
    with pytest.raises(ValueError):
        spec.add_receiver("c0", "e1", "s0")
    with pytest.raises(ValueError):
        spec.join(1.0, "ghost")
    with pytest.raises(ValueError):
        WorkloadEvent(-1.0, "join", "c0")
    with pytest.raises(ValueError):
        WorkloadEvent(1.0, "teleport", "c0")
    with pytest.raises(ValueError):
        ReceiverSpec("c1", "e0", "s0", mode="psychic")


def test_flash_crowd_larger_than_pool_raises():
    spec = WorkloadSpec()
    for i in range(4):
        spec.add_receiver(f"c{i}", "e0", "s0")
    for size in (5, 3):  # a crowd is the whole population, never a part
        with pytest.raises(ValueError, match="is not the receiver pool"):
            spec.flash_crowd(at=1.0, size=size)


def test_spec_builder_events_are_deterministic():
    assert _small_spec().to_dict() == _small_spec().to_dict()
    assert _small_spec(seed=4).to_dict() != _small_spec(seed=9).to_dict()


# ----------------------------------------------------------------------
# membership_churn refactor regression (bit-identical golden replay)
# ----------------------------------------------------------------------
GOLDEN_CHURN_SEED7 = [
    {"time": 12.075293, "kind": "receiver_leave", "args": ["D"], "kwargs": {}},
    {"time": 21.026391, "kind": "receiver_leave", "args": ["A"], "kwargs": {}},
    {"time": 21.123927, "kind": "receiver_leave", "args": ["C"], "kwargs": {}},
    {"time": 22.280778, "kind": "receiver_join", "args": ["D"], "kwargs": {}},
    {"time": 24.129268, "kind": "receiver_leave", "args": ["A"], "kwargs": {}},
    {"time": 30.356672, "kind": "receiver_join", "args": ["A"], "kwargs": {}},
    {"time": 31.500483, "kind": "receiver_join", "args": ["C"], "kwargs": {}},
    {"time": 32.014819, "kind": "receiver_join", "args": ["A"], "kwargs": {}},
    {"time": 33.126969, "kind": "receiver_leave", "args": ["A"], "kwargs": {}},
    {"time": 35.347682, "kind": "receiver_leave", "args": ["D"], "kwargs": {}},
    {"time": 41.163355, "kind": "receiver_join", "args": ["A"], "kwargs": {}},
    {"time": 45.688977, "kind": "receiver_join", "args": ["D"], "kwargs": {}},
]


def test_membership_churn_replays_pre_refactor_golden():
    """The shared-helper refactor must not move a single draw: this golden
    was captured from the pre-refactor ``membership_churn`` output."""
    plan = FaultPlan().membership_churn(
        ["A", "B", "C", "D"], start=5.0, end=60.0, seed=7
    )
    assert plan.to_dicts() == GOLDEN_CHURN_SEED7


def test_churn_events_is_the_plan_event_stream():
    events = churn_events(["A", "B", "C", "D"], 5.0, 60.0, seed=7)
    mapped = sorted(
        ({"time": round(t, 6),
          "kind": "receiver_leave" if kind == "leave" else "receiver_join",
          "args": [rid], "kwargs": {}}
         for kind, t, rid in events),
        key=lambda d: (d["time"], d["kind"]),
    )
    assert mapped == GOLDEN_CHURN_SEED7


def test_churn_events_error_paths():
    with pytest.raises(ValueError):
        churn_events([], 0.0, 10.0)
    with pytest.raises(ValueError):
        churn_events(["a"], 10.0, 5.0)
    with pytest.raises(ValueError):
        churn_events(["a"], 0.0, 10.0, rate=0.0)
    with pytest.raises(ValueError):
        churn_events(["a"], 0.0, 10.0, burst=0)
    with pytest.raises(ValueError):
        churn_events(["a"], 0.0, 10.0, off_time=(5.0, 2.0))


# ----------------------------------------------------------------------
# WirelessEdgeLink
# ----------------------------------------------------------------------
def test_wireless_link_validation():
    sc = Scenario(seed=1)
    sc.add_node("a")
    sc.add_node("b")
    sched = sc.sched
    a, b = sc.network.node("a"), sc.network.node("b")
    with pytest.raises(ValueError):
        WirelessEdgeLink(sched, a, b, 1e6, 0.1, DropTailQueue(8), loss_rate=1.0,
                         rng=Pcg64(stream_seed(sc.seed, "w")))
    with pytest.raises(ValueError):
        WirelessEdgeLink(sched, a, b, 1e6, 0.1, DropTailQueue(8), loss_rate=-0.1,
                         rng=Pcg64(stream_seed(sc.seed, "w2")))
    with pytest.raises(ValueError, match="seeded rng"):
        WirelessEdgeLink(sched, a, b, 1e6, 0.1, DropTailQueue(8), loss_rate=0.5)
    # Lossless needs no rng at all.
    WirelessEdgeLink(sched, a, b, 1e6, 0.1, DropTailQueue(8))


def _wireless_scenario(loss, seed=3):
    sc = Scenario(seed=seed)
    for n in ("src", "edge"):
        sc.add_node(n)

    def factory(sched, a, b, bw, delay, discipline):
        return WirelessEdgeLink(
            sched, a, b, bw, delay, discipline, loss_rate=loss,
            fade_in=loss * 0.25,
            rng=Pcg64(stream_seed(sc.seed, f"chan/{a.name}->{b.name}")),
        )

    sc.add_link("src", "edge", bandwidth=500_000.0, link_factory=factory)
    sess = sc.add_session("src")
    sc.add_receiver(sess.session_id, "edge", receiver_id="R",
                    initial_level=2, mode="static")
    return sc


def test_wireless_drops_are_separate_from_queue_drops():
    sc = _wireless_scenario(0.3)
    bus = EventBus()
    reasons = []
    bus.subscribe("link.drop", lambda ev: reasons.append(ev.data["reason"]))
    sc.sched.bus = bus
    sc.run(30.0)
    wireless = sum(link.drops[DROP_WIRELESS] for link in sc.network.links.values())
    assert wireless > 0
    assert wireless == reasons.count(DROP_WIRELESS)
    assert set(reasons) <= set(DROP_REASONS)
    # Channel losses must not be charged to the queues.
    assert sc.network.total_drops() == 0


def test_wireless_loss_is_deterministic_per_seed():
    def run(seed):
        sc = _wireless_scenario(0.25, seed=seed)
        sc.run(20.0)
        return sorted(
            (str(k), link.drops[DROP_WIRELESS])
            for k, link in sc.network.links.items()
        )

    assert run(5) == run(5)
    assert run(5) != run(6)


# ----------------------------------------------------------------------
# WorkloadRunner on a scenario
# ----------------------------------------------------------------------
def _runner_scenario(size=10, seed=2, mode="controlled"):
    sc = Scenario(seed=seed)
    for n in ("src", "e0", "e1"):
        sc.add_node(n)
    sc.add_link("src", "e0", bandwidth=500_000.0)
    sc.add_link("src", "e1", bandwidth=500_000.0)
    sess = sc.add_session("src")
    sc.attach_controller("src")
    spec = WorkloadSpec()
    spec.zipf_sessions([f"c{i}" for i in range(size)], ["e0", "e1"],
                       [sess.session_id], seed=seed, mode=mode)
    spec.flash_crowd(at=4.0, size=size, ramp=2.0, seed=seed + 1)
    return sc, spec


@pytest.fixture
def two_second_samples(monkeypatch):
    """The runner samples every 2 s instead of every 5 s."""
    monkeypatch.setattr(runner_mod, "SAMPLE_INTERVAL", 2.0)


@pytest.mark.usefixtures("two_second_samples")
def test_runner_parks_population_until_joined():
    sc, spec = _runner_scenario()
    runner = WorkloadRunner(sc, spec).install()
    with pytest.raises(RuntimeError):
        runner.install()
    sc.run(2.0)  # before the flash crowd
    assert runner.n_live == 0
    assert all(h.receiver.level == 0 for h in sc.receivers
               if str(h.receiver_id).startswith("c"))
    sc.run(28.0)
    assert runner.peak_live == len(spec.population)
    assert runner.joins_fired == len(spec.population)
    assert runner.join_latency_ms, "join-to-first-packet probe never fired"
    assert len(runner.samples) > 3


@pytest.mark.usefixtures("two_second_samples")
def test_runner_emits_workload_topics():
    sc, spec = _runner_scenario(size=6)
    WorkloadRunner(sc, spec).install()
    bus = EventBus()
    topics = []
    bus.subscribe("workload.*", lambda ev: topics.append(ev.topic))
    sc.sched.bus = bus
    sc.run(20.0)
    assert "workload.join" in topics
    assert "workload.sample" in topics


def test_parked_receiver_requires_level_zero():
    sc, _spec = _runner_scenario()
    with pytest.raises(ValueError, match="initial_level=0"):
        sc.add_receiver(0, "e0", receiver_id="bad", initial_level=1,
                        parked=True)


@pytest.mark.usefixtures("two_second_samples")
def test_flash_crowd_10k_joins_deterministically():
    """The acceptance-scale point: >= 10^4 joins, replayed bit-identically
    across two fresh builds of the same seed and spec."""
    def run_once():
        sc = Scenario(seed=9)
        sc.add_node("src")
        edges = [f"e{i}" for i in range(16)]
        for e in edges:
            sc.add_node(e)
            sc.add_link("src", e, bandwidth=500_000.0)
        sess = sc.add_session("src")
        spec = WorkloadSpec()
        spec.zipf_sessions([f"c{i}" for i in range(10_000)], edges,
                           [sess.session_id], seed=1, mode="static")
        spec.flash_crowd(at=2.0, size=10_000, ramp=3.0, shape="exp", seed=2)
        runner = WorkloadRunner(sc, spec).install()
        sc.run(10.0)
        return runner.summary()

    one = run_once()
    assert one["joins_fired"] == 10_000
    assert one["peak_live"] == 10_000
    assert one == run_once()


@pytest.mark.usefixtures("two_second_samples")
def test_multicast_refcount_survives_co_located_crowd():
    """Two receivers sharing a node and group: the first leave must not
    tear down the branch the second still needs."""
    sc, spec = _runner_scenario(size=2, mode="static")
    # Co-locate both receivers on one node so they share tree branches.
    spec.population = [
        ReceiverSpec(rs.receiver_id, "e0", rs.session_id, rs.mode)
        for rs in spec.population
    ]
    spec.leave(10.0, spec.population[0].receiver_id)
    runner = WorkloadRunner(sc, spec).install()
    sc.run(12.0)  # the leave at t=10 has fired
    survivor = sc.receiver_handle(spec.population[1].receiver_id)
    rx = survivor.receiver
    assert runner.leaves_fired == 1
    assert rx.level > 0
    # The survivor's layers still have their node's counter as the only
    # handler, and it counts on.
    (counter,) = rx.node.group_handlers[rx.groups[0]]
    mid = counter.count
    assert rx.interval_stats().received > 0
    sc.run(8.0)
    # Packets kept flowing to the survivor after the co-tenant left.
    assert rx.node.group_handlers[rx.groups[0]] == (counter,)
    assert counter.count > mid
    assert rx.interval_stats().received > 0
