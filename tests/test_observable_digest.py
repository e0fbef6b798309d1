"""What a run *did*, hashed — independent of how many heap pops it took.

``observable_digest`` covers everything an experiment, a figure or the
benchmark reads out of a finished :class:`Scenario`: per-link transmit and
queue counters, every ``NodeStats`` field, each receiver's level trace and
``total_bytes``, the sources' per-layer counters and the control bytes.
``Scheduler.events_processed`` is deliberately not in it: an optimisation
that schedules less work for the same behaviour (the parked emitters of
``media/source.py``) must leave every digest below where it is.

The four cases are smoke-sized builds of the four ``bench/`` workloads, made
from the same public builders.  The pins were captured at commit ``6eb301b``,
before sources parked unheard layers.  The ``pkt_steady``, ``join_ramp`` and
``churn_repair`` pins moved once, when links stopped scheduling an event per
serialization end and the tie rule of DESIGN §6 became exact (a packet
offered at the instant a serialization ends starts at once instead of
passing through the queue): only ``enqueued``/``dequeued``/``bytes_enqueued``
of a few links changed, and an event-per-serialization link with that tie
rule reproduces the new pins.  The ``churn_repair`` seed-2 pin moved again
when a link restore began reverting every group to its canonical tree: at
the t = 18.0 ``core``–``agg_a`` restore, group 3, built while that link was
down, drops ``(agg_b, agg_a)`` for ``(core, agg_a)`` instead of keeping the
detour until its next membership change.  Every pin moved once more, with
no behaviour, when ``LinkStats`` lost ``last_tx_end``, a field nothing read:
the digests of the commit before, computed with that field left out of the
link counters, are exactly the current pins.  No pin moved when the
protected tree builder, which ``churn_repair`` had named, was deleted: its
local repairs installed the trees the shortest-path rebuild installs.
"""

import hashlib
import json

import pytest

from repro.experiments.churn import build_churn_scenario, churn_receiver_ids
from repro.experiments.crowd import (
    build_crowd_scenario,
    default_crowd_spec,
    edge_node_names,
)
from repro.experiments.topologies import build_topology_b
from repro.faults.plan import FaultPlan
from repro.federation.experiment import build_federated_views
from repro.federation.session import FederatedSession
from repro.workloads.runner import WorkloadRunner, control_bytes
from repro.workloads.spec import WorkloadSpec


def _slots(obj):
    return [getattr(obj, name) for name in type(obj).__slots__]


def observables(scenario):
    """Every counter and trace of one scenario, as JSON-able data (floats by
    ``repr``: the digest is over exact values, not roundings)."""
    net = scenario.network
    return {
        "links": {
            f"{u}->{v}": [repr(x) for x in _slots(link.stats) + _slots(link.queue.stats)
                          + [getattr(link, "wireless_drops", None)]]
            for (u, v), link in sorted(net.links.items(), key=lambda kv: str(kv[0]))
        },
        "nodes": {str(name): _slots(node.stats)
                  for name, node in sorted(net.nodes.items(), key=lambda kv: str(kv[0]))},
        "receivers": [
            [str(h.receiver_id), h.receiver.total_bytes,
             [repr(t) for t in h.receiver.trace.times], list(h.receiver.trace.values)]
            for h in scenario.receivers
        ],
        "senders": {
            str(sid): [[s.next_seq, s.packets_sent, s.bytes_sent] for s in source.senders]
            for sid, source in sorted(scenario.sources.items(), key=lambda kv: str(kv[0]))
        },
        "control_bytes": repr(control_bytes(scenario)),
    }


def observable_digest(scenarios, extra=None):
    """Sixteen hex digits over :func:`observables` of ``{label: scenario}``
    plus any ``extra`` JSON-able data (federation tiers, advice)."""
    data = {"scenarios": {label: observables(sc) for label, sc in sorted(scenarios.items())},
            "extra": extra}
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
def pkt_steady(seed):
    sc = build_topology_b(n_sessions=4, traffic="vbr", peak_to_mean=3.0, seed=seed)
    sc.run(120.0)
    return observable_digest({"main": sc})


def join_ramp(seed):
    size = 32
    sc, session_ids = build_crowd_scenario(seed=seed, n_edges=size, n_sessions=2)
    spec = default_crowd_spec(size, edge_node_names(size), session_ids,
                              duration=20.0, seed=seed, mode="controlled")
    WorkloadRunner(sc, spec).install()
    sc.run(20.0)
    return observable_digest({"main": sc})


def churn_repair(seed):
    n = 16
    sc = build_churn_scenario(seed=seed, n_receivers=n)
    plan = FaultPlan()
    plan.membership_churn(
        [rid for rid in churn_receiver_ids(n) if rid != "A1"],
        start=4.0, end=32.0, rate=1.0, burst=1, off_time=(4.0, 12.0), seed=seed,
    )
    for a, b, at, down_for in (("core", "agg_a", 16.0, 2.0), ("agg_a", "ra1", 24.0, 2.4),
                               ("core", "agg_b", 32.0, 2.0)):
        plan.link_flap(at, a, b, down_for=down_for, times=1)
    plan.apply(sc)
    sc.run(44.0)
    return observable_digest({"main": sc})


def fed_crowd(seed):
    size = 24
    fed = FederatedSession(build_federated_views(2, 8, seed=seed), seed=seed, cadence=2.0)
    for name in sorted(fed.shards):
        shard = fed.shards[name]
        sc = shard.scenario
        sub = WorkloadSpec()
        sub.zipf_sessions(
            [f"c{name}-{i}" for i in range(size)],
            sorted({r.node for r in shard.view.receivers}), sorted(sc.sessions),
            zipf_s=1.1, seed=seed, controller=name,
        )
        sub.flash_crowd(at=6.0, size=size, ramp=4.0, shape="exp", seed=seed + 1)
        WorkloadRunner(sc, sub).install()
    fed.run(24.0)
    advice = [
        [name, str(sid), a.ceiling, a.floor, a.receiver_count,
         repr(a.bottleneck_bps), a.epoch, a.round]
        for name in sorted(fed.shards)
        for sid, a in sorted(fed.shards[name].advice.items(), key=lambda kv: str(kv[0]))
    ]
    return observable_digest(
        {name: shard.scenario for name, shard in fed.shards.items()},
        extra={"rounds": fed.rounds_completed, "advice": advice,
               "control_bytes_by_tier": fed.control_bytes_by_tier()},
    )


PINNED = {
    (pkt_steady, 1): "929e44897b351301",
    (pkt_steady, 2): "b78b56b3de6ea9ce",
    (join_ramp, 1): "c76d78cdae30f2be",
    (join_ramp, 2): "36bf937b57320d31",
    (churn_repair, 1): "5872da86e1ac237e",
    (churn_repair, 2): "1280343f8709bb18",
    (fed_crowd, 1): "1e41f904decb089d",
    (fed_crowd, 2): "36048b2e041cb9e0",
}


@pytest.mark.parametrize(
    "build, seed", list(PINNED), ids=[f"{b.__name__}-s{s}" for b, s in PINNED])
def test_observable_behaviour_is_where_it_was_pinned(build, seed):
    assert build(seed) == PINNED[build, seed]


def test_digest_sees_a_single_counter_move():
    sc = build_topology_b(n_sessions=1, seed=3)
    sc.run(5.0)
    before = observable_digest({"main": sc})
    assert observable_digest({"main": sc}) == before
    next(iter(sc.network.nodes.values())).stats.received += 1
    assert observable_digest({"main": sc}) != before
