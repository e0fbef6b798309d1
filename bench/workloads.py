"""The benchmark's four workloads, built from the program's public builders.

Every workload is a closed loop by construction: a deterministic
discrete-event run to a fixed simulated horizon, in one process and one
thread.  The seed feeds ``Scenario(seed=...)`` and the ``FaultPlan`` /
``WorkloadSpec`` builders only; the program receives just the generated
inputs.  Why each one exists is in :data:`WORKLOADS` (and, at length, in
``bench/README.md``).

``smoke=True`` shrinks populations and horizons so the smoke test can run
all four, traced and untraced, in a few seconds; smoke numbers are not
comparable with anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Built", "WORKLOADS", "Workload"]


@dataclass
class Built:
    """A workload instance, installed and ready to run."""

    duration: float
    #: ``(label, Scenario)`` — one entry, or one per domain shard.
    scenarios: List[Tuple[str, Any]]
    run: Callable[[], Any]
    runners: List[Any] = field(default_factory=list)
    #: Crowd size every runner must reach (``peak_live``), 0 = no crowd.
    crowd: int = 0
    #: ``(label, time)`` of every join the generated input schedules; the
    #: ones still unfired when ``run`` raises are failed operations.
    joins: List[Tuple[str, float]] = field(default_factory=list)
    fed: Optional[Any] = None
    injector: Optional[Any] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Simulated seconds of a measured repetition / of a smoke repetition.
    duration: float
    smoke_duration: float
    build: Callable[[int, float, bool], Built]
    #: The parameters behind ``build``, for the record in the results file.
    params: Dict[str, Any]

    def instantiate(self, seed: int, smoke: bool = False) -> Built:
        return self.build(seed, self.smoke_duration if smoke else self.duration, smoke)


# ----------------------------------------------------------------------
def _spec_joins(label: str, spec: Any) -> List[Tuple[str, float]]:
    return [(label, ev.time) for ev in spec.events if ev.kind == "join"]


def _pkt_steady(seed: int, duration: float, smoke: bool) -> Built:
    from repro.experiments.topologies import build_topology_b

    sc = build_topology_b(n_sessions=4, traffic="vbr", peak_to_mean=3.0, seed=seed)
    return Built(duration, [("main", sc)], lambda: sc.run(duration))


def _join_ramp(seed: int, duration: float, smoke: bool) -> Built:
    from repro.experiments.crowd import (
        build_crowd_scenario,
        default_crowd_spec,
        edge_node_names,
    )
    from repro.workloads import WorkloadRunner

    size = 32 if smoke else 256
    sc, session_ids = build_crowd_scenario(seed=seed, n_edges=size, n_sessions=2)
    spec = default_crowd_spec(
        size, edge_node_names(size), session_ids,
        duration=duration, seed=seed, mode="controlled",
    )
    runner = WorkloadRunner(sc, spec).install()
    return Built(duration, [("main", sc)], lambda: sc.run(duration),
                 runners=[runner], crowd=size, joins=_spec_joins("main", spec))


#: Input seeds of ``churn_repair``, each verified to run clean on the commit
#: that added the benchmark.  About 1 seed in 30 trips a program bug that
#: makes ``run`` raise (README, "Hazards": seeds 23 and 54 among 0..59), so
#: ``--seed`` picks from this pool instead of being used as it is.
_CHURN_SEEDS = tuple(s for s in range(33) if s != 23)


def _churn_repair(seed: int, duration: float, smoke: bool) -> Built:
    from repro.experiments.churn import build_churn_scenario, churn_receiver_ids
    from repro.faults import FaultPlan

    seed = _CHURN_SEEDS[seed % len(_CHURN_SEEDS)]
    n = 16 if smoke else 64
    sc = build_churn_scenario(seed=seed, n_receivers=n, builder="protected")
    # The default churn plan's timeline (churn from t=10, flaps at 40/60/80
    # on a 110 s horizon), stretched with the horizon.  A1 sits behind the
    # access link that is cut and stays out of the churn pool: a rejoin
    # during its own outage could not be served by any program.
    t = duration / 110.0
    plan = FaultPlan()
    plan.membership_churn(
        [rid for rid in churn_receiver_ids(n) if rid != "A1"],
        start=10.0 * t, end=80.0 * t,
        rate=1.0, burst=1, off_time=(4.0, 12.0), seed=seed,
    )
    for a, b, at, down_for in (("core", "agg_a", 40.0, 5.0), ("agg_a", "ra1", 60.0, 6.0),
                               ("core", "agg_b", 80.0, 5.0)):
        plan.link_flap(at * t, a, b, down_for=down_for * t, times=1)
    injector = plan.apply(sc)
    joins = [("main", ev.time) for ev in plan if ev.kind == "receiver_join"]
    return Built(duration, [("main", sc)], lambda: sc.run(duration),
                 injector=injector, joins=joins)


_FED_CADENCE = 2.0


def _fed_crowd(seed: int, duration: float, smoke: bool) -> Built:
    from repro.federation.experiment import build_federated_views
    from repro.federation.session import FederatedSession
    from repro.workloads import WorkloadRunner, WorkloadSpec

    size = 24 if smoke else 256
    views = build_federated_views(4, 16, seed=seed)
    fed = FederatedSession(views, seed=seed, cadence=_FED_CADENCE)
    runners, joins = [], []
    # The construction experiments/crowd._run_federated uses: one sub-spec
    # per domain, crowd receivers on the domain's access nodes, registered
    # with the domain controller.
    for name in sorted(fed.shards):
        shard = fed.shards[name]
        sc = shard.scenario
        nodes = sorted({r.node for r in shard.view.receivers})
        sub = WorkloadSpec()
        sub.zipf_sessions(
            [f"c{name}-{i}" for i in range(size)], nodes, sorted(sc.sessions),
            zipf_s=1.1, seed=seed, controller=name,
        )
        sub.flash_crowd(at=10.0, size=size, ramp=5.0, shape="exp", seed=seed + 1)
        runners.append(WorkloadRunner(sc, sub).install())
        joins += _spec_joins(name, sub)
    return Built(
        duration, [(name, fed.shards[name].scenario) for name in sorted(fed.shards)],
        lambda: fed.run(duration), runners=runners, crowd=size, joins=joins, fed=fed,
    )


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "pkt_steady",
        "static 4-session VBR run: scheduler, links, nodes and sources do the "
        "work, trees are built once; a tree or controller change must not move it",
        600.0, 30.0, _pkt_steady,
        {"builder": "build_topology_b", "n_sessions": 4, "traffic": "vbr",
         "peak_to_mean": 3.0},
    ),
    Workload(
        "join_ramp",
        "256 receivers join on 256 distinct nodes: per-join tree rebuilds "
        "dominate, so this is the workload an incremental SPT must move",
        40.0, 20.0, _join_ramp,
        {"builder": "build_crowd_scenario+default_crowd_spec", "n_edges": 256,
         "n_sessions": 2, "size": 256, "mode": "controlled"},
    ),
    Workload(
        "churn_repair",
        "leave/rejoin churn plus three link flaps on protected trees: a cache "
        "that speeds joins but pays on leave, invalidation or repair loses here",
        110.0, 44.0, _churn_repair,
        {"builder": "build_churn_scenario", "n_receivers": 64,
         "tree_builder": "protected", "churn_rate": 1.0, "burst": 1,
         "off_time": [4.0, 12.0], "flaps": ["core-agg_a", "agg_a-ra1", "core-agg_b"]},
    ),
    Workload(
        "fed_crowd",
        "4 domain shards with 256 co-located joiners each: trees are cheap, so "
        "reports, controller ticks and the lockstep exchange carry the load",
        120.0, 24.0, _fed_crowd,
        {"builder": "build_federated_views+FederatedSession", "n_domains": 4,
         "receivers_per_domain": 16, "crowd_per_domain": 256,
         "cadence": _FED_CADENCE},
    ),
)}
