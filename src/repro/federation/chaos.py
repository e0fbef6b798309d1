"""The ``repro fedchaos`` experiment: federation under partition and loss.

Sweeps inter-domain channel loss rates and domain-partition windows over a
seeded :class:`~repro.faults.plan.FaultPlan` (degrade -> partition ->
coordinator crash -> failover) and gates the partition-tolerance claims:

* **recovery within bounds** — after the coordinator failover every shard
  must apply fresh advice at the new fencing epoch within
  :data:`RECOVERY_ROUNDS` lockstep rounds;
* **no ceiling overshoot** — once a shard's advice age exceeds the
  staleness budget, its (decayed) effective session ceiling must never
  exceed the ceiling the same-seed *fault-free* run advised at the same
  round: a dark domain degrades conservatively, it never over-subscribes.

Plans round-trip through JSON (``python -m repro fedchaos --save-plan`` /
``--plan``) and the whole result is deterministic modulo wall-clock
fields, so CI replays it diff-clean with ``--strip-timings``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..experiments.scenario import ScenarioResult
from ..faults.plan import FaultPlan
from ..obs.run import fault_log_entries
from .experiment import build_federated_views
from .session import RETRY_LIMIT, FederatedSession
from .shard import DECAY_FLOOR

__all__ = [
    "DEFAULT_CHAOS_DURATION",
    "DEFAULT_LOSS_RATES",
    "DEFAULT_PARTITION_ROUNDS",
    "default_fedchaos_plan",
    "run_fedchaos",
    "render_fedchaos_report",
]

#: Default horizon: 12 lockstep rounds at the default 4 s cadence — clean
#: convergence, then degrade, partition, crash and failover with three
#: rounds of slack for the recovery gate.
DEFAULT_CHAOS_DURATION = 48.0

#: Default channel loss sweep (per-message drop probability).
DEFAULT_LOSS_RATES = (0.05, 0.2)

#: Default partition-window sweep, in lockstep rounds of darkness.
DEFAULT_PARTITION_ROUNDS = (3, 4)

#: Rounds after the failover by which every shard must apply fresh advice.
RECOVERY_ROUNDS = 3

#: The degraded mesh's per-message duplicate probability and maximum
#: hold-back (rounds) in every sweep point's plan.
DUPLICATE = 0.05
DELAY_ROUNDS = 1


def default_fedchaos_plan(
    cadence: float = 4.0,
    loss: float = 0.2,
    duplicate: float = DUPLICATE,
    delay_rounds: int = DELAY_ROUNDS,
    domain: Any = "d2",
    degrade_round: int = 3,
    partition_start_round: int = 4,
    partition_rounds: int = 3,
    kill_round: int = 8,
    failover_round: int = 9,
) -> FaultPlan:
    """The canonical fedchaos storm, with times on round barriers.

    Round 1–2 run clean (advice converges), the mesh turns lossy at
    ``degrade_round``, ``domain`` goes dark for ``partition_rounds``
    rounds, then the coordinator crashes and a standby takes over one
    round later with a bumped epoch.
    """
    if failover_round <= kill_round:
        raise ValueError("failover_round must come after kill_round")
    if partition_rounds < 1:
        raise ValueError("partition_rounds must be >= 1")
    plan = FaultPlan()
    plan.add(
        degrade_round * cadence, "fed_link_degrade", loss=loss,
        duplicate=duplicate, delay_rounds=delay_rounds, domain=None,
    )
    plan.partition_window(
        partition_start_round * cadence,
        (partition_start_round + partition_rounds) * cadence,
        domain,
    )
    plan.add(kill_round * cadence, "fed_coordinator_kill")
    plan.add(failover_round * cadence, "fed_coordinator_failover")
    return plan


def _run_one(
    n_domains: int,
    receivers_per_domain: int,
    seed: int,
    duration: float,
    cadence: float,
    plan: Optional[FaultPlan],
    staleness_budget: int,
    bus: Optional[Any] = None,
) -> Dict[str, Any]:
    views = build_federated_views(n_domains, receivers_per_domain)
    fed = FederatedSession(
        views, seed=seed, cadence=cadence, bus=bus,
        plan=plan, staleness_budget=staleness_budget,
    )
    wall0 = perf_counter()
    fed.run(duration)
    wall = perf_counter() - wall0

    t0 = duration / 2.0
    shards: Dict[str, Dict[str, Any]] = {}
    ceilings: Dict[str, List[Dict[str, Any]]] = {}
    for name in sorted(fed.shards):
        shard = fed.shards[name]
        result = ScenarioResult(shard.scenario, fed.now)
        handles = shard.scenario.receivers
        mean_levels = [
            h.trace.time_weighted_mean(t0, fed.now) for h in handles
        ]
        optimal = result.optimal_levels()
        opts = [optimal[(h.session_id, h.receiver_id)] for h in handles]
        shards[name] = {
            "receivers": len(handles),
            "mean_level": round(sum(mean_levels) / len(mean_levels), 3)
            if mean_levels else 0.0,
            "optimal_level": round(sum(opts) / len(opts), 3) if opts else 0,
            "advice_received": shard.advice_received,
            "stale_rejected": shard.stale_rejected,
            "summary_retries": shard.summary_retries,
            "summary_timeouts": shard.summary_timeouts,
            "decayed_rounds": shard.decayed_rounds,
            "suggestions_clamped": shard.controller.suggestions_clamped,
            "advice_epoch": shard.advice_epoch,
        }
        ceilings[name] = list(shard.ceiling_log)

    tiers = fed.control_bytes_by_tier()
    return {
        "rounds": fed.rounds_completed,
        "events": fed.events_processed,
        "wall_s": round(wall, 4),
        "control_bytes": {**tiers, "total": sum(tiers.values())},
        "coordinator": fed.coordinator_totals(),
        "channel": fed.channel.summary(),
        "failover_rounds": list(fed.failover_rounds),
        "fault_log": fault_log_entries(fed.fault_log),
        "shards": shards,
        "ceilings": ceilings,
    }


def _check_recovery(faulted: Dict[str, Any]) -> Dict[str, Any]:
    """Every shard/session must apply advice at the post-failover epoch
    within :data:`RECOVERY_ROUNDS` rounds of the failover."""
    failovers = faulted["failover_rounds"]
    if not failovers:
        return {"failover_round": None, "ok": False,
                "reason": "no failover fired"}
    r_f = failovers[-1]
    expected_epoch = faulted["coordinator"]["epoch"]
    bound = r_f + RECOVERY_ROUNDS
    recovered_by: Optional[int] = None
    ok = True
    for name in sorted(faulted["ceilings"]):
        entries = faulted["ceilings"][name]
        sessions = sorted({e["session"] for e in entries})
        if not sessions:
            ok = False
            continue
        for sid in sessions:
            hits = [
                e["round"] for e in entries
                if e["session"] == sid and e["epoch"] == expected_epoch
                and e["round"] <= bound
            ]
            if not hits:
                ok = False
            else:
                first = min(hits)
                recovered_by = (
                    first if recovered_by is None
                    else max(recovered_by, first)
                )
    return {
        "failover_round": r_f,
        "expected_epoch": expected_epoch,
        "bound_round": bound,
        "recovered_by_round": recovered_by,
        "ok": bool(ok),
    }


def _check_overshoot(
    faulted: Dict[str, Any], baseline: Dict[str, Any]
) -> Dict[str, Any]:
    """Decayed effective ceilings must never exceed what the same-seed
    fault-free run advised at the same round."""
    base_by_key: Dict[Tuple[str, str, int], int] = {}
    for name, entries in baseline["ceilings"].items():
        for e in entries:
            base_by_key[(name, e["session"], e["round"])] = (
                e["advised_ceiling"]
            )
    checked = 0
    violations = 0
    for name, entries in faulted["ceilings"].items():
        for e in entries:
            eff = e["effective_ceiling"]
            if eff is None:
                continue
            base = base_by_key.get((name, e["session"], e["round"]))
            if base is None:
                continue
            checked += 1
            if eff > base:
                violations += 1
    return {
        "checked": checked,
        "violations": violations,
        # Vacuous success is a broken fault plan, not a pass: the sweep
        # must actually drive some shard past its staleness budget.
        "ok": bool(checked > 0 and violations == 0),
    }


def run_fedchaos(
    seed: int = 1,
    duration: float = DEFAULT_CHAOS_DURATION,
    cadence: float = 4.0,
    n_domains: int = 3,
    receivers_per_domain: int = 8,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    partition_rounds: Sequence[int] = DEFAULT_PARTITION_ROUNDS,
    partition_domain: Any = "d2",
    staleness_budget: int = 2,
    plan: Optional[FaultPlan] = None,
    recorder: Optional[Any] = None,
) -> Dict[str, Any]:
    """Sweep loss × partition windows against one fault-free baseline.

    Each point runs the same-seed federation under its fault plan and
    gates recovery and overshoot against the fault-free baseline (run once,
    shared across points).  With an explicit ``plan`` the sweep collapses
    to a single point replaying exactly that plan.  The returned dict is
    JSON-friendly; ``result["ok"]`` is the CI gate.
    """
    if n_domains < 2:
        raise ValueError("fedchaos needs at least two domains")
    losses = sorted({float(loss) for loss in loss_rates})
    windows = sorted({int(w) for w in partition_rounds})
    if not losses or not windows:
        raise ValueError("need at least one loss rate and one window")
    domain_names = [f"d{i}" for i in range(1, n_domains + 1)]
    if str(partition_domain) not in domain_names:
        raise ValueError(
            f"partition_domain {partition_domain!r} not in {domain_names}"
        )
    bus = recorder.bus if recorder is not None else None

    combos: List[Tuple[float, int, FaultPlan]]
    if plan is not None:
        combos = [(losses[0], windows[0], plan)]
    else:
        combos = [
            (loss, window, default_fedchaos_plan(
                cadence=cadence, loss=loss, domain=partition_domain,
                partition_rounds=window,
            ))
            for loss in losses for window in windows
        ]

    common = dict(
        n_domains=n_domains, receivers_per_domain=receivers_per_domain,
        seed=seed, duration=duration, cadence=cadence,
        staleness_budget=staleness_budget,
    )
    baseline = _run_one(plan=None, **common)

    points: List[Dict[str, Any]] = []
    for i, (loss, window, point_plan) in enumerate(combos):
        faulted = _run_one(
            plan=point_plan, bus=bus if i == len(combos) - 1 else None,
            **common,
        )
        recovery = _check_recovery(faulted)
        overshoot = _check_overshoot(faulted, baseline)
        points.append({
            "loss": loss,
            "partition_rounds": window,
            "duplicate": DUPLICATE,
            "delay_rounds": DELAY_ROUNDS,
            "plan": point_plan.to_dicts(),
            "faulted": faulted,
            "recovery": recovery,
            "overshoot": overshoot,
            "ok": bool(recovery["ok"] and overshoot["ok"]),
        })

    gates = {
        "recovery_within_bound": all(p["recovery"]["ok"] for p in points),
        "no_ceiling_overshoot": all(p["overshoot"]["ok"] for p in points),
    }
    ok = all(gates.values())
    return {
        "seed": seed,
        "duration": duration,
        "cadence": cadence,
        "n_domains": n_domains,
        "receivers_per_domain": receivers_per_domain,
        "partition_domain": str(partition_domain),
        "loss_rates": losses,
        "partition_rounds_sweep": windows,
        "staleness_budget": staleness_budget,
        "decay_floor": DECAY_FLOOR,
        "retry_limit": RETRY_LIMIT,
        "recovery_rounds": RECOVERY_ROUNDS,
        "baseline": baseline,
        "points": points,
        "gates": gates,
        "ok": bool(ok),
    }


def render_fedchaos_report(result: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`run_fedchaos` result."""
    lines = [
        f"fedchaos seed={result['seed']} duration={result['duration']:.0f}s "
        f"cadence={result['cadence']:.1f}s "
        f"{result['n_domains']} domains x "
        f"{result['receivers_per_domain']} rx, "
        f"partition target {result['partition_domain']}, "
        f"staleness budget {result['staleness_budget']} rounds, "
        f"retry limit {result['retry_limit']}"
    ]
    for p in result["points"]:
        f = p["faulted"]
        retries = sum(s["summary_retries"] for s in f["shards"].values())
        timeouts = sum(s["summary_timeouts"] for s in f["shards"].values())
        decays = sum(s["decayed_rounds"] for s in f["shards"].values())
        stale = sum(s["stale_rejected"] for s in f["shards"].values())
        rec = p["recovery"]
        lines.append(
            f"  loss={p['loss']:.2f} window={p['partition_rounds']}r: "
            f"{retries} retries, {timeouts} timeouts, {decays} decayed "
            f"rounds, {stale} stale advice dropped, coordinator "
            f"stale_rejected={f['coordinator']['stale_rejected']}"
        )
        recovered = (
            f"recovered by round {rec.get('recovered_by_round')}"
            if rec["ok"] else "NOT recovered"
        )
        lines.append(
            f"     failover @ round {rec.get('failover_round')} -> "
            f"epoch {rec.get('expected_epoch')}, {recovered} "
            f"(bound {rec.get('bound_round')}); overshoot "
            f"{p['overshoot']['violations']}/{p['overshoot']['checked']} "
            f"checked"
        )
        dark = f["shards"].get(result["partition_domain"])
        base = result["baseline"]["shards"].get(result["partition_domain"])
        if dark and base:
            lines.append(
                f"     dark domain mean level {dark['mean_level']:.2f} vs "
                f"baseline {base['mean_level']:.2f} "
                f"(optimal {base['optimal_level']:.2f})"
            )
    for name, val in result["gates"].items():
        lines.append(f"  gate {name}: " + ("PASS" if val else "FAIL"))
    lines.append("RESULT: " + ("OK" if result["ok"] else "FAILED"))
    return "\n".join(lines)
