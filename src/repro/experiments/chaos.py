"""Chaos experiment: a seeded fault storm over a Topology-A-like network.

This is the end-to-end exercise of the fault-injection subsystem
(:mod:`repro.faults`) and the graceful-degradation machinery it targets:

* **t=20 s** — the controller process crashes; at **t=22 s** the standby
  node takes over cold (empty registration table).  Receivers notice the
  silence, rotate to the standby, re-register, and suggestions resume.
* **t=40 s** — the ``core — agg_a`` link flaps (down 3 s, twice, 6 s apart);
  class-A receivers lose traffic and control messages, multicast branches
  are torn down and regrafted on each transition.
* **t=60–80 s** — topology discovery blacks out; the controller keeps
  serving last-known-good trees (bounded by ``MAX_TREE_AGE``, 30 s) so control
  continues through the outage.

Everything is driven by the discrete-event scheduler from a declarative
:class:`~repro.faults.plan.FaultPlan`, so a given ``(seed, plan)`` pair replays
identically: ``python -m repro chaos --seed 1`` prints the same report every
time.

The headline criterion (asserted in ``tests/test_faults.py``): every
receiver receives a controller suggestion within **3 control intervals** of
each fault clearing.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..faults.plan import FaultPlan
from ..metrics.recovery import RECOVERY_INTERVALS, hears_within, max_suggestion_gap
from ..obs.run import fault_log_entries
from .scenario import Scenario, run_plan
from .topologies import BACKBONE_BW, CLASS_A_BW

__all__ = ["build_chaos_scenario", "default_chaos_plan", "run_chaos"]

#: Default simulated horizon: covers the whole default plan plus recovery.
DEFAULT_DURATION = 120.0


def default_chaos_plan() -> FaultPlan:
    """The canonical storm: controller crash + failover, link flap,
    discovery blackout (see module docstring for the timeline)."""
    plan = FaultPlan()
    plan.add(20.0, "controller_kill", name="default")
    plan.add(22.0, "controller_failover", name="default")
    plan.link_flap(40.0, "core", "agg_a", down_for=3.0, times=2, period=6.0)
    plan.discovery_outage(60.0, 80.0)
    return plan


#: Class-B access bandwidth for chaos runs.  The paper's 100 Kb/s B links
#: run at ~96 % utilisation at 2 layers, leaving essentially no headroom
#: for the control handshake a failover needs (register/ack/suggestion all
#: share the congested link).  150 Kb/s keeps the class-B optimum at 2
#: layers (level 3 needs 192 Kb/s) while letting control traffic through.
CHAOS_CLASS_B_BW = 150_000.0

#: Receivers' controller-silence deadline in chaos runs (s): the watchdog
#: fires within ~2 report intervals of a controller death — what makes
#: "recover within 3 control intervals" achievable for a cold standby.
CHAOS_REREGISTER_AFTER = 3.0


def build_chaos_scenario(
    seed: int = 1,
    n_receivers: int = 4,
) -> Scenario:
    """Topology A plus a ``standby`` controller node hanging off the core;
    receivers re-register after :data:`CHAOS_REREGISTER_AFTER` of silence.
    """
    if n_receivers < 1:
        raise ValueError("need at least one receiver")
    sc = Scenario(seed=seed)
    for name in ("src", "core", "agg_a", "agg_b", "standby"):
        sc.add_node(name)
    sc.add_link("src", "core", bandwidth=BACKBONE_BW)
    sc.add_link("core", "agg_a", bandwidth=BACKBONE_BW)
    sc.add_link("core", "agg_b", bandwidth=BACKBONE_BW)
    sc.add_link("core", "standby", bandwidth=BACKBONE_BW)

    n_a = (n_receivers + 1) // 2
    n_b = n_receivers - n_a
    for i in range(n_a):
        sc.add_node(f"ra{i}")
        sc.add_link("agg_a", f"ra{i}", bandwidth=CLASS_A_BW)
    for i in range(n_b):
        sc.add_node(f"rb{i}")
        sc.add_link("agg_b", f"rb{i}", bandwidth=CHAOS_CLASS_B_BW)

    sess = sc.add_session("src", traffic="cbr")
    sc.attach_controller("src", standby_node="standby")
    for i in range(n_a):
        sc.add_receiver(
            sess.session_id, f"ra{i}", receiver_id=f"A{i}",
            reregister_after=CHAOS_REREGISTER_AFTER,
        )
    for i in range(n_b):
        sc.add_receiver(
            sess.session_id, f"rb{i}", receiver_id=f"B{i}",
            reregister_after=CHAOS_REREGISTER_AFTER,
        )
    return sc


def run_chaos(
    seed: int = 1,
    duration: float = DEFAULT_DURATION,
    n_receivers: int = 4,
    plan: Optional[FaultPlan] = None,
    recover_intervals: float = RECOVERY_INTERVALS,
    recorder: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run the chaos scenario and report per-receiver recovery.

    Returns a JSON-friendly dict; ``result["ok"]`` is True when at least
    one fault clears early enough to be scored and every receiver received
    a controller suggestion within ``recover_intervals`` control intervals
    of every scored fault-clear time.  A
    :class:`~repro.obs.run.RunRecorder` passed as ``recorder`` is attached
    before the run, so the scenario's bus events land in its artifact dir.
    """
    sc = build_chaos_scenario(seed=seed, n_receivers=n_receivers)
    interval = sc.controller.interval
    if plan is None:
        plan = default_chaos_plan()
    injector = run_plan(sc, duration, plan, recorder)

    within = recover_intervals * interval
    # Only faults that clear before the end of the run (with room to see the
    # recovery) are scored.
    clears = [t for t in plan.clear_times() if t + within <= duration]
    receivers: Dict[str, Dict[str, Any]] = {}
    # A run that scores no clear has shown no recovery at all.
    ok = bool(clears)
    for h in sc.receivers:
        agent = h.agent
        report = hears_within(agent.suggestion_times, clears, within)
        ok = ok and bool(report["recovered_all"])
        receivers[str(h.receiver_id)] = {
            "node": h.node,
            "final_level": h.receiver.level,
            "suggestions_received": agent.suggestions_received,
            "register_attempts": agent.register_attempts,
            "reregistrations": agent.reregistrations,
            "unilateral_drops": agent.unilateral_drops,
            # Widest controller-silence window after start-up transients.
            "max_suggestion_gap": max_suggestion_gap(
                agent.suggestion_times, min(10.0, duration / 2), duration
            ),
            "recovery": report,
        }
    controller = sc.controller
    return {
        "seed": seed,
        "duration": duration,
        "interval": interval,
        "recover_within": within,
        "plan": plan.to_dicts(),
        "fault_log": fault_log_entries(injector.log),
        "clear_times": clears,
        "controller": {
            "node": controller.node.name,
            "discovery_failures": controller.discovery_failures,
            "sessions_skipped": controller.sessions_skipped,
            "suggestions_sent": controller.suggestions_sent,
        },
        "receivers": receivers,
        "ok": ok,
    }


def render_chaos_report(result: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`run_chaos` result."""
    lines = [
        f"chaos seed={result['seed']} duration={result['duration']:.0f}s "
        f"interval={result['interval']:.1f}s "
        f"(recover within {result['recover_within']:.1f}s of each clear)",
        "fault log:",
    ]
    for ev in result["fault_log"]:
        lines.append(f"  t={ev['time']:7.2f}  {ev['kind']:<20} {ev['detail']}")
    ctl = result["controller"]
    lines.append(
        f"controller@{ctl['node']}: {ctl['suggestions_sent']} suggestions, "
        f"{ctl['discovery_failures']} discovery failures, "
        f"{ctl['sessions_skipped']} ticks skipped"
    )
    lines.append("receivers:")
    for rid, r in result["receivers"].items():
        worst = max(
            (e["t_suggestion"] for e in r["recovery"]["per_fault"]), default=0.0
        )
        lines.append(
            f"  {rid}@{r['node']}: level={r['final_level']}, "
            f"{r['suggestions_received']} suggestions, "
            f"{r['reregistrations']} re-registrations, "
            f"max gap {r['max_suggestion_gap']:.1f}s, "
            f"worst recovery {worst:.1f}s "
            f"{'OK' if r['recovery']['recovered_all'] else 'FAILED'}"
        )
    if result["ok"]:
        verdict = "OK — all receivers recovered"
    elif not result["clear_times"]:
        verdict = "FAILED — no fault cleared in time to score recovery"
    else:
        verdict = "FAILED — some receiver did not recover"
    lines.append("RESULT: " + verdict)
    return "\n".join(lines)
