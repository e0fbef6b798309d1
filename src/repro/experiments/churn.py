"""Tree-churn resilience experiment.

Runs one seeded scenario — membership churn waves (seeded Poisson
leave/rejoin with a Zipf bias, see :meth:`~repro.faults.plan.FaultPlan.
membership_churn`) combined with link failures on both aggregation links
and one access link — and scores how the shortest-path trees, rebuilt on
every topology change that hits them, ride it out:

* **convergence** — time from the last link-clear (or the rejoin that
  fired, whichever is later) to the next controller suggestion (the gate);
* **repairs** — groups moved onto a rebuilt tree, groups skipped, and the
  tree edges the rebuilds removed and added;
* **disruption** — member-seconds of lost tree coverage;
* **guard precision/recall** — nobody lies in this experiment, so every
  quarantine is a false positive: repairs that confuse the report guard
  show up as precision < 1.

Controllers run with ``fence_repairs=True``: loss reports measured across a
repair disruption window are discarded instead of being fed to the
congestion algorithm as if they were congestion.

The fault timeline (default plan): churn waves from t=10 on, ``core—agg_a``
down at t=40 for 5 s, ``agg_a—ra1`` down at t=60 for 6 s, ``core—agg_b`` down
at t=80 for 5 s.  The topology has a longer-delay ``agg_a—agg_b`` cross
link, so an aggregation-link failure leaves every receiver reachable over a
detour.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from ..faults.plan import FaultPlan
from ..metrics.guard import quarantine_precision_recall
from ..metrics.recovery import hears_within
from ..obs.run import fault_log_entries
from .chaos import CHAOS_REREGISTER_AFTER
from .scenario import Scenario, run_plan
from .topologies import BACKBONE_BW, CLASS_A_BW

__all__ = [
    "build_churn_scenario",
    "default_churn_plan",
    "churn_receiver_ids",
    "run_churn",
    "render_churn_report",
]

#: Default simulated horizon: covers the default plan plus recovery slack.
DEFAULT_DURATION = 120.0

#: Churn's recovery bound, in control intervals: one more than DESIGN §8's
#: three (``RECOVERY_INTERVALS``).  Measured, not derived: on seeds 1–60,
#: seeds 3, 11, 26, 48 and 51 converge in 7.54–7.58 s, inside 4 intervals
#: (8 s) but outside 3 (6 s); at 3 intervals 12 seeds fail instead of 7.
CHURN_RECOVERY_INTERVALS = 4

#: Delay (s) of the ``agg_a — agg_b`` cross link: longer than the primaries,
#: so it only carries traffic as a detour.
CROSS_LINK_DELAY = 0.5


def churn_receiver_ids(n_receivers: int) -> List[str]:
    """The receiver ids :func:`build_churn_scenario` creates, in order
    (``A*`` on the agg_a side, ``B*`` on agg_b) — used to author churn
    plans without building a scenario first."""
    n_a = (n_receivers + 1) // 2
    return [f"A{i}" for i in range(n_a)] + [f"B{i}" for i in range(n_receivers - n_a)]


def default_churn_plan(
    receiver_ids: Sequence[Any],
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
) -> FaultPlan:
    """Membership churn plus one failure per aggregation link.

    The aggregation-link failures are staggered, and one receiver's
    *access* link — which no detour can route around — is cut for 6 s in
    between, genuinely orphaning that receiver (disruption windows open;
    its first post-restore loss report spans the outage and gets fenced).
    ``ra1`` is cut rather than ``ra0`` because the Zipf churn bias makes the
    first receiver likely to be departed anyway.  Churn ends 30 s before
    the horizon so convergence after the last clear is measurable.
    """
    plan = FaultPlan()
    plan.membership_churn(
        receiver_ids,
        start=10.0,
        end=max(duration - 30.0, 11.0),
        rate=0.12,
        burst=1,
        off_time=(4.0, 12.0),
        seed=seed,
    )
    plan.link_flap(40.0, "core", "agg_a", down_for=5.0, times=1)
    plan.link_flap(60.0, "agg_a", "ra1", down_for=6.0, times=1)
    plan.link_flap(80.0, "core", "agg_b", down_for=5.0, times=1)
    return plan


def build_churn_scenario(
    seed: int = 1,
    n_receivers: int = 6,
    builder: Any = None,
) -> Scenario:
    """A Topology-A-like network **with redundancy**: the two aggregation
    nodes are cross-linked (at :data:`CROSS_LINK_DELAY`), so a failed
    aggregation link leaves every receiver reachable over a detour.

    ``builder`` is accepted and ignored: it is kept for ``bench/`` only,
    which passes the name of a tree builder that no longer exists
    (ROADMAP 2(d)).
    """
    if n_receivers < 1:
        raise ValueError("need at least one receiver")
    sc = Scenario(seed=seed)
    for name in ("src", "core", "agg_a", "agg_b"):
        sc.add_node(name)
    sc.add_link("src", "core", bandwidth=BACKBONE_BW)
    sc.add_link("core", "agg_a", bandwidth=BACKBONE_BW)
    sc.add_link("core", "agg_b", bandwidth=BACKBONE_BW)
    sc.add_link("agg_a", "agg_b", bandwidth=BACKBONE_BW, delay=CROSS_LINK_DELAY)

    n_a = (n_receivers + 1) // 2
    for i in range(n_a):
        sc.add_node(f"ra{i}")
        sc.add_link("agg_a", f"ra{i}", bandwidth=CLASS_A_BW)
    for i in range(n_receivers - n_a):
        sc.add_node(f"rb{i}")
        sc.add_link("agg_b", f"rb{i}", bandwidth=CLASS_A_BW)

    sess = sc.add_session("src", traffic="cbr")
    sc.attach_controller("src", fence_repairs=True)
    for i in range(n_a):
        sc.add_receiver(
            sess.session_id, f"ra{i}", receiver_id=f"A{i}",
            reregister_after=CHAOS_REREGISTER_AFTER,
        )
    for i in range(n_receivers - n_a):
        sc.add_receiver(
            sess.session_id, f"rb{i}", receiver_id=f"B{i}",
            reregister_after=CHAOS_REREGISTER_AFTER,
        )
    return sc


def run_churn(
    seed: int = 1,
    duration: float = DEFAULT_DURATION,
    n_receivers: int = 6,
    plan: Optional[FaultPlan] = None,
    recover_intervals: float = CHURN_RECOVERY_INTERVALS,
    recorder: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run the churn scenario under ``plan`` (default: the seeded
    :func:`default_churn_plan`) and score it.

    The returned dict is JSON-friendly; ``result["ok"]`` is True when the
    last link-clear leaves ``recover_intervals`` control intervals before
    the horizon, and every scored receiver got a controller suggestion
    within that long of the later of the last link-clear and the start of
    its current agent (the rejoin that fired: a join of a receiver already
    present does nothing, so it is no reference).  A
    :class:`~repro.obs.run.RunRecorder` passed as ``recorder`` records the
    run.
    """
    if plan is None:
        plan = default_churn_plan(
            churn_receiver_ids(n_receivers), duration=duration, seed=seed
        )
    sc = build_churn_scenario(seed=seed, n_receivers=n_receivers)
    interval = sc.controller.interval
    within = recover_intervals * interval
    injector = run_plan(sc, duration, plan, recorder)

    mcast = sc.mcast
    link_clears = sorted(
        ev.time for ev in plan if ev.kind == "link_up" if ev.time < duration
    )
    last_clear = link_clears[-1] if link_clears else 0.0
    # A run that scores no link clear has shown no recovery at all.
    ok = bool(link_clears) and last_clear + within <= duration

    receivers: Dict[str, Dict[str, Any]] = {}
    convergence = 0.0
    for h in sc.receivers:
        agent = h.agent
        ref = max(last_clear, agent.started_at)
        scored = agent.active and ref + within <= duration
        (heard,) = hears_within(agent.suggestion_times, [ref], within)["per_fault"]
        dt, recovered = heard["t_suggestion"], heard["recovered"]
        if scored:
            ok = ok and recovered
            convergence = max(convergence, dt)
        receivers[str(h.receiver_id)] = {
            "node": h.node,
            "active": agent.active,
            "scored": scored,
            "final_level": h.receiver.level,
            "t_suggestion_after_clear": (round(dt, 3) if math.isfinite(dt) else None),
            "recovered": recovered,
        }

    quarantined = set()
    fenced = 0
    for controller in sc.controllers.values():
        quarantined |= {rid for _sid, rid in controller.guard.quarantined_keys()}
        fenced += controller.reports_fenced
    # Nobody lies under pure churn: ground truth is the empty liar set, so
    # any quarantine at all costs precision.
    guard_pr = quarantine_precision_recall(quarantined, [])

    orphan_s = sum(mcast.orphan_seconds(g, until=duration) for g in sorted(mcast.groups))
    return {
        "seed": seed,
        "duration": duration,
        "interval": interval,
        "recover_within": within,
        "plan": plan.to_dicts(),
        "fault_log": fault_log_entries(injector.log),
        "builds": mcast.builds,
        "rebuild_repairs": mcast.rebuild_repairs,
        "groups_skipped": mcast.groups_skipped,
        "repair_epoch": mcast.repair_epoch,
        "tree_edges_churned": sum(
            r["edges_removed"] + r["edges_added"] for r in mcast.repair_log
        ),
        "orphan_member_seconds": round(orphan_s, 3),
        "convergence_s": round(convergence, 3),
        "reports_fenced": fenced,
        "guard": guard_pr,
        "receivers": receivers,
        "ok": ok,
    }


def render_churn_report(result: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`run_churn` result."""
    return "\n".join([
        f"churn seed={result['seed']} duration={result['duration']:.0f}s "
        f"interval={result['interval']:.1f}s "
        f"(recover within {result['recover_within']:.1f}s)",
        f"plan: {len(result['plan'])} fault events",
        f"  repairs: {result['rebuild_repairs']} rebuild, "
        f"{result['groups_skipped']} groups skipped",
        f"  orphan {result['orphan_member_seconds']:.1f} member-s, "
        f"{result['tree_edges_churned']} tree edges churned, "
        f"convergence {result['convergence_s']:.1f}s, "
        f"{result['reports_fenced']} reports fenced, "
        f"guard precision {result['guard']['precision']:.2f} "
        f"recall {result['guard']['recall']:.2f}",
        "RESULT: " + (
            "OK — every scored receiver recovered"
            if result["ok"]
            else "FAILED — a receiver missed the recovery bound, or no link "
            "cleared in time to score one"
        ),
    ])
