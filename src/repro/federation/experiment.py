"""The ``repro federate`` experiment: domain-count scaling at fixed size.

Holds the total receiver population fixed, sweeps the number of
administrative domains it is sharded into, and checks the federation's
scaling claims:

* **flat control cost** — control bytes per receiver must stay within a
  tolerance band as domains are added: receivers talk only to their local
  controller, and the inter-domain tier exchanges fixed-size aggregates;
* **bounded coordinator memory** — the coordinator stores at most one
  summary per (session, domain), independent of receiver count;
* **report isolation** — the coordinator never ingests a per-receiver
  report (structurally rejected and counted).

Per-domain convergence is also scored against the per-shard oracle so a
federation that is cheap but wrong cannot pass.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from ..experiments.domains import DEFAULT_DOMAIN_BWS
from ..experiments.scenario import ScenarioResult
from ..experiments.topologies import BACKBONE_BW
from ..obs.profile import Profiler
from .session import FederatedSession
from .shard import DomainReceiver, DomainView

__all__ = [
    "DEFAULT_DURATION",
    "DEFAULT_DOMAIN_COUNTS",
    "DEVIATION_BUDGET",
    "build_federated_views",
    "run_federate",
    "render_federate_report",
]

#: Default simulated horizon per sweep point: enough for every receiver to
#: climb to its optimum and hold it for several control intervals.
DEFAULT_DURATION = 40.0

#: Default domain-count sweep (total receivers stays fixed).
DEFAULT_DOMAIN_COUNTS = (2, 4, 8)

#: Largest per-domain mean relative deviation from the shard oracle that
#: still counts as converged (the ``domains_converged`` gate).
DEVIATION_BUDGET = 0.5


def build_federated_views(
    n_domains: int,
    receivers_per_domain: int,
    seed: int = 0,
) -> List[DomainView]:
    """One view per domain of the multi-domain star, built from its layout.

    Domain ``d<d>`` (``d`` = 1 .. ``n_domains``) is gateway ``gw<d>`` behind a
    :data:`~repro.experiments.topologies.BACKBONE_BW` uplink, with
    ``receivers_per_domain`` access nodes ``r<d><i>`` on links of
    ``DEFAULT_DOMAIN_BWS[(d - 1) % 2]``; node ``r<d><i>`` holds receiver
    ``D<d>-<i>`` of the one CBR session ``0``.  Names need only be unique
    inside a domain, since each shard is its own ``Scenario``.  Nodes and
    links are ``str``-sorted, receivers in creation order, views sorted by
    domain name.

    ``seed`` is unused (the layout draws nothing); it stays only because
    the bench ``fed_crowd`` workload passes it.
    """
    if n_domains < 1:
        raise ValueError("need at least one domain")
    if receivers_per_domain < 1:
        raise ValueError("need at least one receiver per domain")
    views: List[DomainView] = []
    for d in range(1, n_domains + 1):
        gateway = f"gw{d}"
        access = [f"r{d}{i}" for i in range(receivers_per_domain)]
        ordered = sorted(access)  # "gw<d>" sorts before every "r<d><i>"
        bandwidth = DEFAULT_DOMAIN_BWS[(d - 1) % len(DEFAULT_DOMAIN_BWS)]
        views.append(DomainView(
            domain=f"d{d}",
            nodes=(gateway, *ordered),
            links=tuple((gateway, node, bandwidth) for node in ordered),
            gateway=gateway,
            uplink_bandwidth=BACKBONE_BW,
            sessions=(0,),
            receivers=tuple(
                DomainReceiver(f"D{d}-{i}", 0, node)
                for i, node in enumerate(access)
            ),
        ))
    return sorted(views, key=lambda v: v.domain)


def _run_point(
    n_domains: int,
    receivers_per_domain: int,
    seed: int,
    duration: float,
    cadence: float,
    bus: Optional[Any] = None,
) -> Dict[str, Any]:
    views = build_federated_views(n_domains, receivers_per_domain)
    profiler = Profiler()
    fed = FederatedSession(
        views, seed=seed, cadence=cadence, bus=bus, profiler=profiler,
    )
    wall0 = perf_counter()
    fed.run(duration)
    wall = perf_counter() - wall0

    n_receivers = sum(v.receiver_count for v in views)
    tiers = fed.control_bytes_by_tier()
    total_bytes = sum(tiers.values())
    t0 = duration / 2.0

    domains: Dict[str, Dict[str, Any]] = {}
    for name in sorted(fed.shards):
        shard = fed.shards[name]
        result = ScenarioResult(shard.scenario, fed.now)
        optimal = result.optimal_levels()
        handles = shard.scenario.receivers
        mean_levels = [
            h.trace.time_weighted_mean(t0, fed.now) for h in handles
        ]
        opts = [optimal[(h.session_id, h.receiver_id)] for h in handles]
        domains[name] = {
            "receivers": len(handles),
            "gateway": str(shard.view.gateway),
            "mean_level": round(sum(mean_levels) / len(mean_levels), 3)
            if mean_levels else 0.0,
            "optimal_level": round(sum(opts) / len(opts), 3) if opts else 0,
            "deviation": round(result.mean_deviation(t0), 4),
            "events": shard.scenario.sched.events_processed,
        }

    advice = {
        str(sid): {
            "ceiling": a.ceiling,
            "floor": a.floor,
            "receivers": a.receiver_count,
            "bottleneck_bps": round(a.bottleneck_bps, 1),
        }
        for sid, a in sorted(
            fed.coordinator.session_advice.items(), key=lambda kv: str(kv[0])
        )
    }
    shard_ms = profiler.summary("fed.shard.")
    return {
        "n_domains": n_domains,
        "n_receivers": n_receivers,
        "receivers_per_domain": receivers_per_domain,
        "rounds": fed.rounds_completed,
        "events": fed.events_processed,
        "wall_s": round(wall, 4),
        "control_bytes": {**tiers, "total": total_bytes},
        "control_bytes_per_receiver": round(total_bytes / n_receivers, 2)
        if n_receivers else 0.0,
        "coordinator": {
            "summaries_received": fed.coordinator.summaries_received,
            "rejected_messages": fed.coordinator.type_rejected,
            "peak_tracked": fed.coordinator.peak_tracked,
            "state_bytes": fed.coordinator.state_bytes(),
            "merges": fed.coordinator.merges,
        },
        "advice": advice,
        "domains": domains,
        "shard_wall_ms": {
            key: round(rec["total_s"] * 1e3, 2)
            for key, rec in sorted(shard_ms.items())
        },
    }


def run_federate(
    seed: int = 1,
    duration: float = DEFAULT_DURATION,
    total_receivers: int = 1024,
    domain_counts: Sequence[int] = DEFAULT_DOMAIN_COUNTS,
    cadence: float = 4.0,
    tolerance: float = 0.15,
    recorder: Optional[Any] = None,
) -> Dict[str, Any]:
    """Sweep domain count at fixed total receivers and gate the claims.

    ``total_receivers`` is split evenly (it must divide by every entry of
    ``domain_counts`` so every point serves the same population).  The
    returned dict is JSON-friendly; ``result["ok"]`` is the CI gate.
    """
    counts = sorted(set(int(n) for n in domain_counts))
    if not counts or counts[0] < 1:
        raise ValueError("domain_counts must be positive integers")
    for n in counts:
        if total_receivers % n:
            raise ValueError(
                f"total_receivers={total_receivers} does not divide evenly "
                f"into {n} domains"
            )
    bus = recorder.bus if recorder is not None else None

    points: List[Dict[str, Any]] = []
    for n in counts:
        points.append(_run_point(
            n, total_receivers // n, seed, duration, cadence,
            bus=bus if n == counts[-1] else None,
        ))

    cbprs = [p["control_bytes_per_receiver"] for p in points]
    flat = (
        max(cbprs) <= min(cbprs) * (1.0 + tolerance) if min(cbprs) > 0
        else False
    )
    bounded = all(
        p["coordinator"]["peak_tracked"] <= p["n_domains"] * len(p["advice"])
        for p in points
    )
    isolated = all(
        p["coordinator"]["rejected_messages"] == 0 for p in points
    )
    converged = all(
        rec["deviation"] <= DEVIATION_BUDGET
        for p in points for rec in p["domains"].values()
    )

    ok = flat and bounded and isolated and converged
    return {
        "seed": seed,
        "duration": duration,
        "cadence": cadence,
        "total_receivers": total_receivers,
        "domain_counts": counts,
        "tolerance": tolerance,
        "deviation_budget": DEVIATION_BUDGET,
        "points": points,
        "gates": {
            "control_bytes_flat": flat,
            "coordinator_bounded": bounded,
            "no_per_receiver_reports": isolated,
            "domains_converged": converged,
        },
        "ok": bool(ok),
    }


def render_federate_report(result: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`run_federate` result."""
    lines = [
        f"federate seed={result['seed']} duration={result['duration']:.0f}s "
        f"cadence={result['cadence']:.1f}s "
        f"total_receivers={result['total_receivers']} "
        f"domains={result['domain_counts']}"
    ]
    for p in result["points"]:
        coord = p["coordinator"]
        lines.append(
            f"  {p['n_domains']:>2} domains x {p['receivers_per_domain']} rx: "
            f"{p['control_bytes_per_receiver']:.1f} control B/rx "
            f"(intra {p['control_bytes']['intra_domain']}, "
            f"summary {p['control_bytes']['summary']}, "
            f"advice {p['control_bytes']['advice']}), "
            f"coordinator peak {coord['peak_tracked']} summaries / "
            f"{coord['state_bytes']} B, "
            f"{p['events']} events in {p['wall_s']:.2f}s wall"
        )
        devs = [rec["deviation"] for rec in p["domains"].values()]
        lines.append(
            f"     deviation max {max(devs):.3f} across domains; advice: "
            + "; ".join(
                f"session {sid}: ceiling {a['ceiling']} floor {a['floor']} "
                f"({a['receivers']} rx)"
                for sid, a in p["advice"].items()
            )
        )
    gates = result["gates"]
    for name, val in gates.items():
        lines.append(f"  gate {name}: " + ("PASS" if val else "FAIL"))
    lines.append("RESULT: " + ("OK" if result["ok"] else "FAILED"))
    return "\n".join(lines)
