"""The perf-trajectory benchmark harness (``python -m repro bench``).

Runs a fixed, seeded scenario suite with the profiling hooks attached and
writes ``BENCH_<rev>.json`` so every PR leaves a comparable perf baseline:

* **sim/wall ratio** — simulated seconds per wall second (how much faster
  than real time the stack runs): the headline number, and the one the
  baseline gate checks;
* **events/sec** — scheduler events processed per wall-clock second.
  Informational: it cannot see a change that does the same simulation in
  fewer events, and it rewards one that adds no-op events;
* **per-stage ms** — wall time inside each of the six TopoSense stages and
  the controller tick, from :class:`~repro.obs.profile.Profiler`;
* **control bytes per receiver** — total control-plane bytes sent divided
  by receiver count, the paper's §IV control-traffic cost.

The suite covers the three workload shapes the repo cares about: a
heterogeneous single-session tree (Topology A), competing sessions over a
shared bottleneck with VBR sources (Topology B), and the chaos storm
(failover + flap + discovery blackout).  ``quick=True`` shrinks horizons
for CI smoke use; the scenario set is identical so numbers stay comparable
scenario-by-scenario.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Tuple

from .profile import Profiler
from .run import git_rev

__all__ = [
    "BENCH_SUITE",
    "run_bench",
    "write_bench_file",
    "check_against_baseline",
    "render_bench_report",
]


def _topo_a() -> Any:
    from ..experiments.topologies import build_topology_a

    return build_topology_a(n_receivers=8, traffic="cbr", seed=1)


def _topo_b() -> Any:
    from ..experiments.topologies import build_topology_b

    return build_topology_b(n_sessions=4, traffic="vbr", peak_to_mean=3.0, seed=1)


def _chaos() -> Any:
    from ..experiments.chaos import build_chaos_scenario, default_chaos_plan

    sc = build_chaos_scenario(seed=1)
    default_chaos_plan().apply(sc)
    return sc


def _crowd_flash() -> Any:
    from ..experiments.crowd import (
        build_crowd_scenario,
        default_crowd_spec,
        edge_node_names,
    )
    from ..workloads import WorkloadRunner

    sc, session_ids = build_crowd_scenario(seed=1, n_edges=8, wireless_loss=0.1)
    spec = default_crowd_spec(
        256, edge_node_names(8), session_ids, duration=120.0, seed=1
    )
    WorkloadRunner(sc, spec).install()
    return sc


#: (name, scenario builder, full duration s, quick duration s)
BENCH_SUITE: Tuple[Tuple[str, Callable[[], Any], float, float], ...] = (
    ("topo_a_cbr_8rx", _topo_a, 120.0, 30.0),
    ("topo_b_vbr_4sess", _topo_b, 120.0, 30.0),
    ("chaos_storm", _chaos, 120.0, 45.0),
    ("crowd_flash_256rx", _crowd_flash, 120.0, 30.0),
)


def _control_bytes(sc: Any) -> float:
    """All control-plane bytes a scenario's senders put on the wire.

    Covers every tier: domain controllers, receiver agents, and —
    for federated scenarios — the coordinator (``sc.coordinator``) and
    the shards' summary uplinks.
    """
    total = sum(c.control_bytes_sent for c in sc.controllers.values())
    for h in sc.receivers:
        agent = h.agent
        if agent is not None:
            total += getattr(agent, "control_bytes_sent", 0)
    coordinator = getattr(sc, "coordinator", None)
    if coordinator is not None:
        total += getattr(coordinator, "control_bytes_sent", 0)
    shards = getattr(sc, "shards", None)
    if shards:
        total += sum(
            getattr(shard, "summary_bytes_sent", 0)
            for shard in shards.values()
        )
    return float(total)


def _n_domains(sc: Any) -> int:
    """Domain count of a scenario: its controller shards (min 1)."""
    return max(1, len(getattr(sc, "controllers", {}) or {}))


def run_bench(quick: bool = False, duration_override: Optional[float] = None) -> Dict[str, Any]:
    """Run the suite and return the benchmark result dict.

    ``duration_override`` forces every scenario to one (short) horizon —
    used by the test suite to keep the smoke test fast.
    """
    scenarios: Dict[str, Any] = {}
    total_events = 0
    total_wall = 0.0
    total_sim = 0.0
    for name, builder, full_s, quick_s in BENCH_SUITE:
        duration = duration_override if duration_override is not None else (
            quick_s if quick else full_s
        )
        sc = builder()
        profiler = Profiler()
        sc.sched.profiler = profiler
        for controller in sc.controllers.values():
            controller.profiler = profiler
            if hasattr(controller.algorithm, "profiler"):
                controller.algorithm.profiler = profiler
        sc.mcast.profiler = profiler
        t0 = perf_counter()
        sc.run(duration)
        wall = perf_counter() - t0
        events = sc.sched.events_processed
        n_receivers = len(sc.receivers) or 1
        stage_ms = {
            key: round(rec["total_s"] * 1e3, 3)
            for key, rec in profiler.summary("toposense.").items()
        }
        stage_ms["ctrl.tick"] = round(profiler.total("ctrl.tick") * 1e3, 3)
        stage_ms["tree.build"] = round(profiler.total("tree.build") * 1e3, 3)
        stage_ms["tree.repair"] = round(profiler.total("tree.repair") * 1e3, 3)
        scenarios[name] = {
            "duration_s": duration,
            "wall_s": round(wall, 4),
            "events": events,
            "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
            "sim_wall_ratio": round(duration / wall, 2) if wall > 0 else 0.0,
            "n_receivers": len(sc.receivers),
            "n_domains": _n_domains(sc),
            "control_bytes": _control_bytes(sc),
            "control_bytes_per_receiver": round(_control_bytes(sc) / n_receivers, 1),
            "queue_drops": sc.network.total_drops(),
            "stage_ms": stage_ms,
        }
        # Workload-driven scenarios (a WorkloadRunner tagged the scenario)
        # also report crowd scale and join latency; static suites report
        # their fixed receiver count and zeroed latency percentiles so the
        # record shape stays uniform across the suite.
        workload = getattr(sc, "workload", None)
        from ..workloads import latency_percentiles

        j2fp = latency_percentiles(
            workload.join_latency_ms if workload is not None else []
        )
        scenarios[name]["n_live_receivers"] = (
            workload.peak_live if workload is not None else len(sc.receivers)
        )
        scenarios[name]["join_first_packet_ms"] = {
            "p50": round(j2fp["p50"], 3), "p99": round(j2fp["p99"], 3),
        }
        total_events += events
        total_wall += wall
        total_sim += duration
    return {
        "rev": git_rev(),
        "python": sys.version.split()[0],
        "quick": bool(quick or duration_override is not None),
        "scenarios": scenarios,
        "totals": {
            "events": total_events,
            "wall_s": round(total_wall, 4),
            "sim_s": total_sim,
            "events_per_sec": round(total_events / total_wall, 1) if total_wall > 0 else 0.0,
            "sim_wall_ratio": round(total_sim / total_wall, 2) if total_wall > 0 else 0.0,
        },
    }


def write_bench_file(result: Dict[str, Any], out_dir: str = ".") -> Path:
    """Write ``BENCH_<rev>.json`` into ``out_dir`` and return its path."""
    path = Path(out_dir) / f"BENCH_{result['rev']}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True))
    return path


def check_against_baseline(
    result: Dict[str, Any], baseline: Dict[str, Any], tolerance: float = 0.30
) -> Tuple[bool, str]:
    """Gate on time: fail when the suite's simulated seconds per wall second
    (``totals.sim_wall_ratio``) regressed more than ``tolerance`` versus the
    baseline's.

    Time, not heap pops: the suite simulates the same seconds on every
    commit, so the ratio moves only with wall time, whereas events/sec
    stands still when work is removed event by event and rises when no-op
    events are added.  Only the aggregate is gated — per-scenario numbers
    and stage timings are informational (they move with machine noise far
    more than the aggregate does).
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must be in (0, 1)")
    base = float(baseline["totals"]["sim_wall_ratio"])
    cur = float(result["totals"]["sim_wall_ratio"])
    if base <= 0:
        return True, "baseline has no sim/wall ratio; skipping gate"
    floor = base * (1.0 - tolerance)
    msg = (
        f"sim/wall {cur:.0f}x vs baseline {base:.0f}x "
        f"(floor {floor:.0f}x at {tolerance:.0%} tolerance, rev {result.get('rev')})"
    )
    return cur >= floor, msg


def render_bench_report(result: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`run_bench` result."""
    lines = [
        f"bench rev={result['rev']} python={result['python']}"
        + (" (quick)" if result.get("quick") else "")
    ]
    for name, s in result["scenarios"].items():
        lines.append(
            f"  {name}: {s['events']} events in {s['wall_s']:.2f}s wall "
            f"({s['events_per_sec']:.0f} ev/s, {s['sim_wall_ratio']:.0f}x realtime), "
            f"{s['control_bytes_per_receiver']:.0f} control B/receiver, "
            f"{s['queue_drops']} drops"
        )
        stages = ", ".join(
            f"{k.split('.')[-1]}={v:.1f}" for k, v in sorted(s["stage_ms"].items())
        )
        lines.append(f"    stage ms: {stages}")
    t = result["totals"]
    lines.append(
        f"TOTAL: {t['events']} events / {t['wall_s']:.2f}s wall = "
        f"{t['events_per_sec']:.0f} events/sec, {t['sim_wall_ratio']:.0f}x realtime"
    )
    return "\n".join(lines)
