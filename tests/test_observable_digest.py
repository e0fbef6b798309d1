"""What a run *did*, hashed — independent of how many heap pops it took.

``observable_digest`` covers everything an experiment, a figure or the
benchmark reads out of a finished :class:`Scenario`: per-link transmit
counters and drop tallies, every ``NodeStats`` field, each receiver's
level trace and ``total_bytes``, the sources' per-layer packet counts and
the control bytes.
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
Every pin moved once more, again with no behaviour, when the counters that
only tests read left the packet path: ``NodeStats`` kept only its drop
tallies (then ``no_route`` and ``dropped_dead``), ``QueueStats`` only ``dropped``
and ``bytes_dropped``, and a sender only ``packets_sent`` (its
``next_seq`` alias and ``bytes_sent``, a fixed multiple of it, went).  The
digests of the commit before, computed with those fields left out, are
exactly the current pins.  Every pin moved once more, with no behaviour,
when node death left the simulator: ``NodeStats`` lost ``dropped_dead``,
which no run had ever charged, and the digests of the commit before,
computed with that slot left out, are exactly the current pins.  Every
pin moved once more, with no behaviour, when the link's FIFO became its
queue and drops were counted on the link by reason: ``QueueStats`` and its
``bytes_dropped`` went, and a link now hashes its ``LinkStats`` slots, its
congestive drops (queue-full plus link-down, what ``QueueStats.dropped``
counted) and, on a wireless edge, its channel drops.  The digests of the
commit before, computed with ``bytes_dropped`` left out, are exactly the
current pins.  No pin moved when a group's packets came to be counted once
per node instead of once per receiver.  The ``join_ramp`` and
``fed_crowd`` pins moved, with behaviour, when a suggestion came to be
addressed to a node, so that every receiver of its session there hears it
instead of only the one registered last.  Both builds put receivers that
registered first on nodes where later ones join: ``join_ramp``'s
incumbents share ``e0``-``e3`` with crowd receivers (at seed 1 ``I0`` and
``I2`` now follow suggestions, and ``c0``, which shares ``I0``'s edge,
moves with them; at seed 2 ``I0``, ``I1``, ``I3`` and the crowd receivers
beside them), and ``fed_crowd``'s placed receivers share their access
nodes with the crowd (at seed 1 the bytes or level trace of 56 of the 64
receivers change: the placed ones no longer sit at level 1 all run).  Control bytes are
unchanged in all four: one suggestion per node was already one per
visible receiver.  The ``pkt_steady`` and ``churn_repair`` builds have one
receiver per node and session, and their pins did not move.  The
``join_ramp`` and ``fed_crowd`` pins moved again, with behaviour, when the
receivers of a session at a node came to send one report packet per
interval (a 64 B header plus a 32 B block each) instead of one 96 B
packet each: co-located receivers now report at the phase of the one that
bound the port, and a receiver joining a port already bound first reports
at the port's next firing.  Control bytes fell from 28 672 to 28 192
(``join_ramp`` seed 1), 28 544 to 27 904 (seed 2), 69 728 to 49 120
(``fed_crowd`` seed 1) and 69 408 to 48 544 (seed 2).  At ``join_ramp``
seed 1 only three links' counters moved; at seed 2 the level traces of
22 of 36 receivers moved, and at ``fed_crowd`` seeds 1 and 2 those of 25
and 64 of 64.  A one-receiver packet is the 96 B it was, at the time it
was, so the ``pkt_steady`` and ``churn_repair`` pins did not move.
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
from repro.simnet.link import DROP_LINK_DOWN, DROP_QUEUE_FULL, DROP_WIRELESS
from repro.simnet.wireless import WirelessEdgeLink
from repro.workloads.runner import WorkloadRunner, control_bytes
from repro.workloads.spec import WorkloadSpec


def _slots(obj):
    return [getattr(obj, name) for name in type(obj).__slots__]


def _link_counters(link):
    drops = link.drops
    return _slots(link.stats) + [
        drops[DROP_QUEUE_FULL] + drops[DROP_LINK_DOWN],
        drops[DROP_WIRELESS] if isinstance(link, WirelessEdgeLink) else None,
    ]


def observables(scenario):
    """Every counter and trace of one scenario, as JSON-able data (floats by
    ``repr``: the digest is over exact values, not roundings)."""
    net = scenario.network
    return {
        "links": {
            f"{u}->{v}": [repr(x) for x in _link_counters(link)]
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
            str(sid): [s.packets_sent for s in source.senders]
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
# Each build runs one smoke-sized workload and returns ``({label: scenario},
# extra)``, the arguments of :func:`observable_digest`.
def pkt_steady(seed):
    sc = build_topology_b(n_sessions=4, traffic="vbr", peak_to_mean=3.0, seed=seed)
    sc.run(120.0)
    return {"main": sc}, None


def join_ramp(seed):
    size = 32
    sc, session_ids = build_crowd_scenario(seed=seed, n_edges=size, n_sessions=2)
    spec = default_crowd_spec(size, edge_node_names(size), session_ids,
                              duration=20.0, seed=seed, mode="controlled")
    WorkloadRunner(sc, spec).install()
    sc.run(20.0)
    return {"main": sc}, None


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
    return {"main": sc}, None


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
    return (
        {name: shard.scenario for name, shard in fed.shards.items()},
        {"rounds": fed.rounds_completed, "advice": advice,
         "control_bytes_by_tier": fed.control_bytes_by_tier()},
    )


PINNED = {
    (pkt_steady, 1): "079ffc702764318f",
    (pkt_steady, 2): "536e214d26f172cb",
    (join_ramp, 1): "8bc4729891998ec5",
    (join_ramp, 2): "7a991d7550debf99",
    (churn_repair, 1): "bdb7cedb5a620efb",
    (churn_repair, 2): "7c709f5c75b3f3c9",
    (fed_crowd, 1): "c06de9288df3d2b0",
    (fed_crowd, 2): "ee46d640940a8ce8",
}


@pytest.mark.parametrize(
    "build, seed", list(PINNED), ids=[f"{b.__name__}-s{s}" for b, s in PINNED])
def test_observable_behaviour_is_where_it_was_pinned(build, seed):
    assert observable_digest(*build(seed)) == PINNED[build, seed]


def test_digest_sees_a_single_counter_move():
    sc = build_topology_b(n_sessions=1, seed=3)
    sc.run(5.0)
    before = observable_digest({"main": sc})
    assert observable_digest({"main": sc}) == before
    next(iter(sc.network.nodes.values())).stats.no_route += 1
    assert observable_digest({"main": sc}) != before
