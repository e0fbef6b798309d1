"""Flash-crowd workload experiment: mass joins over wireless edges.

Sweeps flash-crowd sizes × wireless channel loss rates on one star-of-edges
topology and scores what mass membership dynamics do to the paper's
control plane:

* **subscription stability** of a fixed set of incumbent controlled
  receivers (the Fig. 6/7 pair), compared against a same-seed *static*
  baseline run with no crowd at all;
* **join-to-first-packet latency** percentiles across the crowd;
* **control-bytes-per-live-receiver** — the scalability curve; the sweep
  fails unless its per-window maximum stays under a declared bound as the
  crowd ramps;
* **loss attribution** — on wireless points the controller's loss signal
  is partly channel noise (:func:`~repro.metrics.attribution.
  loss_attribution`); the experiment reports the ground-truth
  misattribution rate alongside stability, and fails if a lossy point
  shows none (the wireless model would not be exercising the stage-1/2
  congestion assumption at all).

Determinism is a first-class gate: the smallest sweep point is re-run from
a JSON round-trip of its :class:`~repro.workloads.spec.WorkloadSpec` and
must reproduce the original point bit-for-bit once wall-clock timings are
stripped.

Every crowd joins as fully controlled receivers (agent, registration,
reports).  The same spec machinery also drives the federated control plane:
a sub-spec per domain is compiled onto each shard's scenario and the flash
crowd rides the lockstep rounds.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..metrics.attribution import loss_attribution
from ..metrics.stability import worst_receiver_stability
from ..obs.run import strip_timings
from ..simnet.rng import Pcg64, stream_seed
from ..simnet.wireless import WirelessEdgeLink
from ..workloads.runner import WorkloadRunner
from ..workloads.spec import WorkloadSpec
from .scenario import Scenario, run_plan
from .topologies import BACKBONE_BW, CLASS_A_BW

__all__ = [
    "CONTROL_BYTES_PER_LIVE_BOUND",
    "build_crowd_scenario",
    "crowd_receiver_ids",
    "crowd_spec_for",
    "default_crowd_spec",
    "render_crowd_report",
    "run_crowd",
]

#: Default simulated horizon (seconds).
DEFAULT_DURATION = 90.0
#: Default flash-crowd sizes: one fully controlled, one at 10^4 scale.
DEFAULT_SIZES = (64, 10_000)
#: Default wireless channel loss rates (0 = wired behaviour).
DEFAULT_LOSS_RATES = (0.0, 0.15)
#: Declared control-plane scalability bound: no sample window may cost
#: more than this many control bytes per second per live receiver.
CONTROL_BYTES_PER_LIVE_BOUND = 512.0
#: Concurrent sessions the Zipf demand picks from.
CROWD_SESSIONS = 2
#: The flash crowd joins over ``[CROWD_AT, CROWD_AT + CROWD_RAMP)`` (s).
CROWD_AT = 10.0
CROWD_RAMP = 5.0
#: The federated crowd's plane: this many domains of this many placed
#: receivers, exchanging summaries every ``FEDERATED_CADENCE`` seconds.
FEDERATED_DOMAINS = 2
FEDERATED_RECEIVERS_PER_DOMAIN = 2
FEDERATED_CADENCE = 4.0


def crowd_receiver_ids(size: int) -> List[str]:
    """The crowd receiver ids :func:`default_crowd_spec` uses, in order."""
    return [f"c{i}" for i in range(size)]


def edge_node_names(n_edges: int) -> List[str]:
    """The wireless edge node names :func:`build_crowd_scenario` creates."""
    return [f"e{i}" for i in range(n_edges)]


def crowd_session_ids(n_sessions: int) -> List[int]:
    """The session ids :func:`build_crowd_scenario` creates, in order."""
    return list(range(n_sessions))


def build_crowd_scenario(
    seed: int = 1,
    n_edges: int = 8,
    n_sessions: int = CROWD_SESSIONS,
    incumbents: int = 4,
    wireless_loss: float = 0.0,
) -> Tuple[Scenario, List[Any]]:
    """A star of ``n_edges`` wireless edge nodes behind one wired core.

    ``src — core`` is wired backbone; every ``core — e<i>`` edge is a
    :class:`~repro.simnet.wireless.WirelessEdgeLink` pair whose loss rate
    is ``wireless_loss`` scaled by a per-edge seeded factor drawn from
    ``U(0.5, 1.5)`` — non-uniform path loss, so edges differ even at one
    nominal rate.  Burst fading is armed in proportion to the loss rate.
    ``incumbents`` controlled receivers (``I0..``) subscribe to session 0
    from t=0 and serve as the stability probes; returns
    ``(scenario, session_ids)``.
    """
    if n_edges < 1:
        raise ValueError("need at least one edge node")
    if n_sessions < 1:
        raise ValueError("need at least one session")
    if not 0.0 <= wireless_loss < 1.0:
        raise ValueError("wireless_loss must be in [0, 1)")
    sc = Scenario(seed=seed)
    sc.add_node("src")
    sc.add_node("core")
    sc.add_link("src", "core", bandwidth=BACKBONE_BW)
    for name in edge_node_names(n_edges):
        sc.add_node(name)
        if wireless_loss > 0.0:
            factor = Pcg64(stream_seed(sc.seed, f"wireless/factor/{name}")).uniform(0.5, 1.5)
            loss = min(0.9, wireless_loss * factor)

            def make_wireless(sched, a, b, bw, delay, discipline, _loss=loss):
                return WirelessEdgeLink(
                    sched, a, b, bw, delay, discipline,
                    loss_rate=_loss,
                    fade_in=min(0.5, _loss * 0.25),
                    rng=Pcg64(stream_seed(sc.seed, f"wireless/chan/{a.name}->{b.name}")),
                )

            sc.add_link("core", name, bandwidth=CLASS_A_BW,
                        link_factory=make_wireless)
        else:
            sc.add_link("core", name, bandwidth=CLASS_A_BW)

    session_ids = crowd_session_ids(n_sessions)
    for sid in session_ids:
        sc.add_session("src", traffic="cbr", session_id=sid)
    sc.attach_controller("src")
    edges = edge_node_names(n_edges)
    for i in range(incumbents):
        sc.add_receiver(session_ids[0], edges[i % n_edges], receiver_id=f"I{i}")
    return sc, session_ids


def default_crowd_spec(
    size: int,
    edge_nodes: Sequence[Any],
    session_ids: Sequence[Any],
    duration: float = DEFAULT_DURATION,
    seed: int = 1,
    mode: str = "controlled",
) -> WorkloadSpec:
    """The sweep's workload: Zipf session demand + flash crowd + diurnal tail.

    ``size`` receivers spread round-robin over ``edge_nodes`` pick sessions
    by Zipf popularity, all join in an exponential-ramp flash crowd over
    ``[CROWD_AT, CROWD_AT + CROWD_RAMP)``, and a post-ramp diurnal wave
    churns a slice of them until shortly before the horizon.  Pure
    build-time randomness: same arguments, same spec, bit for bit.
    """
    spec = WorkloadSpec()
    spec.zipf_sessions(
        crowd_receiver_ids(size), edge_nodes, list(session_ids),
        zipf_s=1.1, seed=seed, mode=mode,
    )
    spec.flash_crowd(at=CROWD_AT, size=size, ramp=CROWD_RAMP, shape="exp", seed=seed + 1)
    churn_start = CROWD_AT + CROWD_RAMP + 2.0
    churn_end = duration - 5.0
    if churn_end > churn_start:
        spec.diurnal_churn(
            churn_start, churn_end,
            period=max(20.0, churn_end - churn_start),
            peak_rate=1.0, trough_rate=0.05, seed=seed + 2,
        )
    return spec


def crowd_spec_for(
    size: int,
    seed: int = 1,
    duration: float = DEFAULT_DURATION,
    n_edges: int = 8,
) -> WorkloadSpec:
    """The spec :func:`run_crowd` drives a ``size`` crowd with when given
    none."""
    return default_crowd_spec(
        size, edge_node_names(n_edges), crowd_session_ids(CROWD_SESSIONS),
        duration=duration, seed=seed, mode="controlled",
    )


# ----------------------------------------------------------------------
# Sweep internals
# ----------------------------------------------------------------------
def _incumbent_traces(sc: Scenario) -> List[Any]:
    return [
        h.receiver.trace for h in sc.receivers
        if str(h.receiver_id).startswith("I")
    ]


def _stability(sc: Scenario, duration: float) -> Dict[str, float]:
    changes, mean_gap = worst_receiver_stability(
        _incumbent_traces(sc), 0.0, duration
    )
    return {"max_changes": changes, "mean_gap_s": round(mean_gap, 3)}


def _run_baseline(
    seed: int, duration: float, loss: float, n_edges: int, incumbents: int,
) -> Dict[str, Any]:
    """Same seed, same scenario, no crowd: the static reference point."""
    sc, _sessions = build_crowd_scenario(
        seed=seed, n_edges=n_edges, incumbents=incumbents, wireless_loss=loss,
    )
    sc.run(duration)
    return {
        "loss_rate": loss,
        "stability": _stability(sc, duration),
        "attribution": loss_attribution(sc.network),
    }


def _run_point(
    seed: int,
    duration: float,
    size: int,
    loss: float,
    spec: WorkloadSpec,
    n_edges: int,
    incumbents: int,
    control_bound: float,
    recorder: Optional[Any] = None,
) -> Dict[str, Any]:
    t0 = perf_counter()
    sc, _sessions = build_crowd_scenario(
        seed=seed, n_edges=n_edges, incumbents=incumbents, wireless_loss=loss,
    )
    runner = WorkloadRunner(sc, spec).install()
    run_plan(sc, duration, recorder=recorder)

    # Pre-crowd windows (n_live == 0) measure only the incumbent control
    # plane against a clamped divisor; the scalability bound is about what
    # each *crowd* receiver costs, so score live windows only.
    cb_rows = [r for r in runner.control_bytes_per_live() if r["n_live"] > 0]
    max_rate = max((r["bytes_per_live_s"] for r in cb_rows), default=0.0)
    mode = spec.population[0].mode if spec.population else "controlled"
    return {
        "size": size,
        "loss_rate": loss,
        "mode": mode,
        "workload": runner.summary(),
        "stability": _stability(sc, duration),
        "attribution": loss_attribution(sc.network),
        "control": {
            "max_bytes_per_live_s": round(max_rate, 3),
            "bound_bytes_per_live_s": control_bound,
            "within_bound": max_rate <= control_bound,
            "windows": len(cb_rows),
        },
        "wall_s": round(perf_counter() - t0, 3),
    }


def _run_federated(seed: int, duration: float, crowd_per_domain: int) -> Dict[str, Any]:
    """The same workload machinery on the federated control plane.

    One sub-spec per domain compiles onto that shard's standalone scenario
    (crowd receivers on the domain's access nodes, registered with the
    domain controller); the flash crowds then ride the lockstep rounds.
    """
    from ..federation.experiment import build_federated_views
    from ..federation.session import FederatedSession

    views = build_federated_views(FEDERATED_DOMAINS, FEDERATED_RECEIVERS_PER_DOMAIN)
    fed = FederatedSession(views, seed=seed, cadence=FEDERATED_CADENCE)
    runners: Dict[str, WorkloadRunner] = {}
    for name in sorted(fed.shards):
        shard = fed.shards[name]
        sc = shard.scenario
        nodes = sorted({r.node for r in shard.view.receivers})
        session_ids = sorted(sc.sessions)
        sub = WorkloadSpec()
        sub.zipf_sessions(
            [f"c{name}-{i}" for i in range(crowd_per_domain)],
            nodes, session_ids, zipf_s=1.1, seed=seed,
            controller=name,
        )
        sub.flash_crowd(at=10.0, size=crowd_per_domain, ramp=5.0,
                        shape="exp", seed=seed + 1)
        runners[name] = WorkloadRunner(sc, sub).install()
    fed.run(duration)

    per_domain = {
        name: {
            "peak_live": r.peak_live,
            "joins_fired": r.joins_fired,
            "join_to_first_packet_ms": r.summary()["join_to_first_packet_ms"],
        }
        for name, r in runners.items()
    }
    ok = all(
        d["peak_live"] == crowd_per_domain and d["joins_fired"] == crowd_per_domain
        for d in per_domain.values()
    )
    return {
        "domains": FEDERATED_DOMAINS,
        "crowd_per_domain": crowd_per_domain,
        "rounds": fed.rounds_completed,
        "per_domain": per_domain,
        "ok": ok,
    }


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def run_crowd(
    seed: int = 1,
    duration: float = DEFAULT_DURATION,
    sizes: Sequence[int] = DEFAULT_SIZES,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    n_edges: int = 8,
    incumbents: int = 4,
    control_bound: float = CONTROL_BYTES_PER_LIVE_BOUND,
    federated_crowd: int = 32,
    spec: Optional[WorkloadSpec] = None,
    recorder: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run the flash-crowd sweep and score it.

    Every ``(size, loss)`` point replays the same seeded scenario; each
    loss rate also gets a same-seed crowd-free baseline run.  When ``spec``
    is given (a spec reloaded from JSON), ``sizes`` must name exactly one
    size and the provided spec drives every point verbatim — the CI replay
    path.  ``result["ok"]`` is True when

    * **replay** — the smallest point, re-run from a JSON round-trip of
      its spec, reproduces the original bit-for-bit after wall-clock
      timings are stripped;
    * **attribution** — every lossy point reports a positive congestive-
      vs-wireless misattribution rate (stability is reported alongside);
    * **control bound** — no point's per-window control-byte rate exceeds
      ``control_bound`` bytes/s per live receiver;
    * **federated** — the per-domain flash crowds fully join on the
      federated plane (``federated_crowd`` > 0; pass 0 to skip).

    A :class:`~repro.obs.run.RunRecorder` records the first sweep point.
    """
    sizes = [int(s) for s in sizes]
    loss_rates = [float(lo) for lo in loss_rates]
    if not sizes or not loss_rates:
        raise ValueError("need at least one size and one loss rate")
    if any(s < 1 for s in sizes):
        raise ValueError("crowd sizes must be >= 1")
    if spec is not None and len(sizes) != 1:
        raise ValueError("an explicit spec drives exactly one size")

    specs = {
        size: spec if spec is not None else crowd_spec_for(
            size, seed=seed, duration=duration, n_edges=n_edges,
        )
        for size in sizes
    }

    baselines = [
        _run_baseline(seed, duration, lo, n_edges, incumbents)
        for lo in loss_rates
    ]

    points: List[Dict[str, Any]] = []
    first = True
    for size in sorted(sizes):
        for lo in loss_rates:
            points.append(_run_point(
                seed, duration, size, lo, specs[size],
                n_edges, incumbents, control_bound,
                recorder=recorder if first else None,
            ))
            first = False

    # Gate (a): JSON round-trip replay of the smallest point.
    smallest = min(points, key=lambda p: (p["size"], p["loss_rate"]))
    rt_spec = WorkloadSpec.from_dict(
        json.loads(json.dumps(specs[smallest["size"]].to_dict()))
    )
    replay_point = _run_point(
        seed, duration, smallest["size"], smallest["loss_rate"], rt_spec,
        n_edges, incumbents, control_bound,
    )
    replay_identical = (
        strip_timings(smallest, ("wall_s",))
        == strip_timings(replay_point, ("wall_s",))
    )

    # Gate (b): lossy points must show ground-truth misattribution.
    lossy = [p for p in points if p["loss_rate"] > 0.0]
    attribution_ok = all(
        p["attribution"]["misattribution_rate"] > 0.0 for p in lossy
    )

    # Gate (c): the declared control-plane scalability bound.
    control_ok = all(p["control"]["within_bound"] for p in points)

    federated = (
        _run_federated(seed, duration, federated_crowd)
        if federated_crowd > 0 else None
    )
    federated_ok = federated is None or federated["ok"]

    return {
        "seed": seed,
        "duration": duration,
        "sizes": sorted(sizes),
        "loss_rates": loss_rates,
        "n_edges": n_edges,
        "n_sessions": CROWD_SESSIONS,
        "incumbents": incumbents,
        "control_bound": control_bound,
        "baselines": baselines,
        "points": points,
        "replay": {
            "size": smallest["size"],
            "loss_rate": smallest["loss_rate"],
            "identical": replay_identical,
        },
        "attribution_ok": attribution_ok,
        "control_ok": control_ok,
        "federated": federated,
        "ok": replay_identical and attribution_ok and control_ok
              and federated_ok,
    }


def render_crowd_report(result: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`run_crowd` result."""
    lines = [
        f"crowd seed={result['seed']} duration={result['duration']:.0f}s "
        f"sizes={','.join(str(s) for s in result['sizes'])} "
        f"loss={','.join(f'{lo:g}' for lo in result['loss_rates'])} "
        f"edges={result['n_edges']} sessions={result['n_sessions']}",
    ]
    for b in result["baselines"]:
        st = b["stability"]
        lines.append(
            f"  baseline loss={b['loss_rate']:g}: incumbent changes "
            f"{st['max_changes']} (mean gap {st['mean_gap_s']:.1f}s), "
            f"misattribution {b['attribution']['misattribution_rate']:.2f}"
        )
    for p in result["points"]:
        w = p["workload"]
        st = p["stability"]
        j2fp = w["join_to_first_packet_ms"]
        lines.append(
            f"  size={p['size']} loss={p['loss_rate']:g} [{p['mode']}]: "
            f"peak {w['peak_live']} live, {w['joins_fired']} joins / "
            f"{w['leaves_fired']} leaves, j2fp p50 {j2fp['p50']:.0f}ms "
            f"p99 {j2fp['p99']:.0f}ms"
        )
        lines.append(
            f"  {'':>6} incumbents: {st['max_changes']} changes "
            f"(mean gap {st['mean_gap_s']:.1f}s); misattribution "
            f"{p['attribution']['misattribution_rate']:.2f} "
            f"({p['attribution']['wireless_drops']:.0f} wireless vs "
            f"{p['attribution']['congestive_drops']:.0f} congestive); "
            f"control {p['control']['max_bytes_per_live_s']:.1f} B/s/live "
            f"(bound {p['control']['bound_bytes_per_live_s']:.0f}) "
            f"{'OK' if p['control']['within_bound'] else 'OVER'}"
        )
    rp = result["replay"]
    lines.append(
        f"replay size={rp['size']} loss={rp['loss_rate']:g}: "
        f"{'bit-identical' if rp['identical'] else 'DIVERGED'}"
    )
    fed = result.get("federated")
    if fed is not None:
        lines.append(
            f"federated: {fed['crowd_per_domain']} joins x "
            f"{fed['domains']} domains over {fed['rounds']} rounds "
            f"{'OK' if fed['ok'] else 'FAILED'}"
        )
    lines.append("RESULT: " + (
        "OK — replay bit-identical, misattribution surfaced, control "
        "bytes within bound" if result["ok"]
        else "FAILED — see gates above"
    ))
    return "\n".join(lines)
