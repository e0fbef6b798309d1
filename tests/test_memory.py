"""What one receiver costs in memory, and what a run leaves behind.

Bytes per receiver bound how large a population one process can hold
(DESIGN.md, "Per-receiver memory").  Three guards:

* the per-receiver classes are slotted: no instance ``__dict__``;
* one more controlled crowd receiver costs at most
  :data:`MAX_BYTES_PER_RECEIVER` traced bytes, measured as the difference
  between two crowd sizes of one federated construction, so everything the
  crowd does not scale (topology, sessions, controllers) cancels out;
* a run leaves no cyclic garbage: everything it drops is freed by reference
  counting, so the collector never has to find it;
* a run keeps no random stream past its holder: the live ``Pcg64`` streams
  are those of the live agents, sources and controllers, not of the agents
  that rejoins replaced.
"""

import gc
import tracemalloc

import pytest

from repro.control.agent import ReceiverAgent
from repro.experiments.churn import build_churn_scenario, churn_receiver_ids
from repro.faults import FaultPlan
from repro.federation.experiment import build_federated_views
from repro.federation.session import FederatedSession
from repro.simnet.engine import Scheduler
from repro.simnet.rng import Pcg64
from repro.workloads import WorkloadRunner, WorkloadSpec

DOMAINS = 2
#: Crowd receivers per domain of the two measured runs.
SMALL, LARGE = 8, 40
#: Simulated seconds of each measured run.
DURATION = 40.0
#: Traced bytes one more controlled crowd receiver may cost.  Measured on
#: CPython 3.11 (x86-64): 3 288 B, since a node's session port sends one
#: report packet for all its agents, so an agent keeps no periodic chain
#: and heap entry of its own.  The bound is the 3.11 figure plus about
#: 15 %.  While every agent reported on its own timer, the same
#: measurement gave 4 314 B on 3.11 (4 279–4 627 B on 3.9, 3.10 and 3.12),
#: under a bound of 4 950 B; while the controller kept each receiver's
#: ``Register`` and every agent bound a port of its own for its acks,
#: 4 584–4 592 B on 3.11 (4 533–4 935 B on 3.10 and 3.12); before the
#: per-receiver classes were slotted and a receiver held state only for
#: its subscribed layers, 7 181–7 837 B.
MAX_BYTES_PER_RECEIVER = 3800


@pytest.fixture
def collector_off():
    """Collect once, then keep the cyclic collector off for the test, so a
    cycle the test creates cannot be collected before it is counted."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def fed_crowd(crowd, duration):
    """``fed_crowd``'s construction, small: ``DOMAINS`` domains of 8 placed
    receivers, each with ``crowd`` controlled crowd receivers joining on
    its access nodes from t = 2 s, run for ``duration`` seconds."""
    fed = FederatedSession(build_federated_views(DOMAINS, 8, seed=1), seed=1, cadence=2.0)
    for name in sorted(fed.shards):
        shard = fed.shards[name]
        sc = shard.scenario
        spec = WorkloadSpec()
        spec.zipf_sessions(
            [f"c{name}-{i}" for i in range(crowd)], sorted({r.node for r in shard.view.receivers}),
            sorted(sc.sessions), zipf_s=1.1, seed=1, controller=name,
        )
        spec.flash_crowd(at=2.0, size=crowd, ramp=2.0, shape="exp", seed=2)
        WorkloadRunner(sc, spec).install()
    fed.run(duration)
    return fed


def traced_bytes(crowd, duration=DURATION):
    """Bytes still allocated, after a collection, by building and running
    :func:`fed_crowd` (the run is alive while they are counted)."""
    gc.collect()
    tracemalloc.start()
    try:
        _alive = fed_crowd(crowd, duration)  # counted while it is alive
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_per_receiver_objects_have_no_instance_dict():
    fed = fed_crowd(2, 10.0)
    sc = fed.shards[sorted(fed.shards)[0]].scenario
    handle = next(h for h in sc.receivers if isinstance(h.agent, ReceiverAgent)
                  and h.receiver.level > 0)
    rx = handle.receiver
    objects = {
        "ReceiverHandle": handle,
        "LayeredReceiver": rx,
        "a layer's receive state": rx.layers[0],
        "ReceiverAgent": handle.agent,
        "StepTrace": rx.trace,
        "SeriesTrace": rx.loss_series,
        "first-packet probe": next(h.receiver.on_first_packet for h in sc.receivers
                                   if h.receiver.on_first_packet is not None),
        "periodic chain": Scheduler().every(1.0, print)[2],
    }
    assert [name for name, obj in objects.items() if hasattr(obj, "__dict__")] == []


def test_a_controlled_receiver_costs_at_most_the_bound():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    # Warm-up: first-use allocations (caches, interned names) are not
    # per receiver and must not land in the smaller run only.
    traced_bytes(SMALL, 10.0)
    small, large = traced_bytes(SMALL), traced_bytes(LARGE)
    per_receiver = (large - small) / (DOMAINS * (LARGE - SMALL))
    assert per_receiver <= MAX_BYTES_PER_RECEIVER


def churn_run():
    """``churn_repair``'s construction at its smoke size, run: receivers
    leave and rejoin (each rejoin replaces the receiver's agent and ends
    the old one's report chain) while three links flap."""
    seed, n, duration = 1, 16, 44.0
    sc = build_churn_scenario(seed=seed, n_receivers=n, builder="protected")
    t = duration / 110.0
    plan = FaultPlan()
    plan.membership_churn(
        [rid for rid in churn_receiver_ids(n) if rid != "A1"],
        start=10.0 * t, end=80.0 * t, rate=1.0, burst=1, off_time=(4.0, 12.0), seed=seed,
    )
    for a, b, at, down_for in (("core", "agg_a", 40.0, 5.0), ("agg_a", "ra1", 60.0, 6.0),
                               ("core", "agg_b", 80.0, 5.0)):
        plan.link_flap(at * t, a, b, down_for=down_for * t, times=1)
    injector = plan.apply(sc)
    sc.run(duration)
    assert [kind for _, kind, _ in injector.log].count("receiver_join") > 0
    return sc


def test_a_churn_run_leaves_no_cyclic_garbage(collector_off):
    _alive = churn_run()  # collected while it is alive
    assert gc.collect() == 0


def test_a_churn_run_keeps_no_departed_agents_stream(collector_off):
    before = [o for o in gc.get_objects() if isinstance(o, Pcg64)]
    sc = churn_run()
    seen = {id(o) for o in before}
    streams = [o for o in gc.get_objects() if isinstance(o, Pcg64) and id(o) not in seen]
    held = ([h.agent.rng for h in sc.receivers if h.agent is not None]
            + [src.rng for src in sc.sources.values()]
            + [ctrl.algorithm.rng for ctrl in sc.controllers.values()])
    assert len(held) == len(sc.receivers) + 2  # one session, one controller
    assert len(streams) == len(held)
    assert sorted(map(id, streams)) == sorted(map(id, held))
