"""Adversarial chaos: byzantine receivers attack the control plane.

Where :mod:`repro.experiments.chaos` makes the *infrastructure* fail, this
experiment makes the *participants* fail.  The topology is a two-branch tree
with a deliberately narrow shared link on one side::

    src -- core --+-- agg_a --+-- ha0, ha1   (honest, class-A access)
                  |           +-- xhi        (liar: lie_high)
                  +-- agg_b --+-- hb0, hb1   (honest)
                 (400 Kb/s)   +-- xlo        (liar: lie_low+disobey)

At ``attack_start`` two receivers turn byzantine:

* **XH** (``lie_high``) reports 50 %+ loss from an uncongested branch while
  its byte counts say everything arrived — the naive attack that would
  otherwise drag the whole ``agg_a`` subtree down.  The guard's
  bytes-vs-loss consistency check catches it within a few reports.
* **XL** (``lie_low+disobey``) ignores suggestions, grabs a layer every
  report, and reports zero loss with forged full-rate byte counts while its
  climb congests the shared 400 Kb/s ``core—agg_b`` link for everyone
  behind it — the freerider attack the paper's min-based internal-loss
  computation is most vulnerable to.  The sibling-subtree audit (honest
  ``hb0``/``hb1`` report the shared loss XL denies) plus disobedience
  strikes catch it; tree-level enforcement then prunes its upper-layer
  groups, which a receiver that ignores suggestions cannot refuse.

The run is judged against a same-seed no-attack baseline (``ok`` criteria,
asserted in ``tests/test_hardening.py``): both liars quarantined within
``quarantine_intervals`` control intervals of the attack, zero honest
receivers quarantined, and every honest receiver's subscription level
staying within :data:`DIVERGENCE_BUDGET` of its baseline trace (time-weighted,
from attack start to the end of the run).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..faults.plan import FaultPlan
from ..metrics.guard import mean_level_divergence, quarantine_precision_recall
from ..obs.run import fault_log_entries
from .scenario import Scenario, run_plan
from .topologies import BACKBONE_BW, CLASS_A_BW

__all__ = [
    "build_byzantine_scenario",
    "default_attack_plan",
    "run_byzantine",
    "render_byzantine_report",
    "LIARS",
]

#: Default simulated horizon (attack at 30 s leaves 90 s of aftermath).
DEFAULT_DURATION = 120.0

#: Ground truth: receiver id -> byzantine mode of the default attack.
LIARS: Dict[str, str] = {"XH": "lie_high", "XL": "lie_low+disobey"}

#: The shared ``core — agg_b`` bottleneck: fits 3 cumulative layers
#: (224 Kb/s) with headroom, but not 4 (480 Kb/s) — XL's climb congests it.
SHARED_B_BW = 400_000.0

#: Access bandwidth behind ``agg_b``: never the constraint on that side.
ACCESS_B_BW = 1_500_000.0

#: Largest time-weighted mean level divergence (layers) an honest receiver
#: may show against its no-attack baseline.
DIVERGENCE_BUDGET = 1.0


def default_attack_plan(attack_start: float = 30.0) -> FaultPlan:
    """Both liars switch on at ``attack_start`` (after convergence)."""
    plan = FaultPlan()
    for receiver_id, mode in LIARS.items():
        plan.add(attack_start, "byzantine_start", receiver_id, mode)
    return plan


def build_byzantine_scenario(seed: int = 1) -> Scenario:
    """The two-branch tree from the module docstring, guard at defaults."""
    sc = Scenario(seed=seed)
    for name in ("src", "core", "agg_a", "agg_b"):
        sc.add_node(name)
    sc.add_link("src", "core", bandwidth=BACKBONE_BW)
    sc.add_link("core", "agg_a", bandwidth=BACKBONE_BW)
    sc.add_link("core", "agg_b", bandwidth=SHARED_B_BW)
    for name in ("ha0", "ha1", "xhi"):
        sc.add_node(name)
        sc.add_link("agg_a", name, bandwidth=CLASS_A_BW)
    for name in ("hb0", "hb1", "xlo"):
        sc.add_node(name)
        sc.add_link("agg_b", name, bandwidth=ACCESS_B_BW)

    sess = sc.add_session("src", traffic="cbr")
    sc.attach_controller("src")
    sc.add_receiver(sess.session_id, "ha0", receiver_id="HA0")
    sc.add_receiver(sess.session_id, "ha1", receiver_id="HA1")
    sc.add_receiver(sess.session_id, "xhi", receiver_id="XH")
    sc.add_receiver(sess.session_id, "hb0", receiver_id="HB0")
    sc.add_receiver(sess.session_id, "hb1", receiver_id="HB1")
    sc.add_receiver(sess.session_id, "xlo", receiver_id="XL")
    return sc


def _honest_traces(sc: Scenario) -> Dict[str, Any]:
    return {
        str(h.receiver_id): h.trace
        for h in sc.receivers
        if str(h.receiver_id) not in LIARS
    }


def run_byzantine(
    seed: int = 1,
    duration: float = DEFAULT_DURATION,
    attack_start: float = 30.0,
    plan: Optional[FaultPlan] = None,
    quarantine_intervals: float = 5.0,
    recorder: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run the attack and its same-seed baseline; return a verdict dict.

    ``result["ok"]`` is True iff every liar was quarantined within
    ``quarantine_intervals`` control intervals of ``attack_start``, no
    honest receiver was ever quarantined, and every honest receiver's
    time-weighted mean level over ``[attack_start, duration]`` diverges from
    the baseline run by at most :data:`DIVERGENCE_BUDGET` layers.
    """
    if not 0.0 < attack_start < duration:
        raise ValueError("attack_start must fall inside the run")
    # Baseline first: identical seed, topology and horizon, no attack.
    baseline = build_byzantine_scenario(seed=seed)
    baseline.run(duration)
    baseline_traces = _honest_traces(baseline)

    attacked = build_byzantine_scenario(seed=seed)
    interval = attacked.controller.interval
    if plan is None:
        plan = default_attack_plan(attack_start)
    # Only the attacked run is recorded: the baseline exists purely to be
    # compared against, and recording it would interleave two event streams.
    injector = run_plan(attacked, duration, plan, recorder)

    controller = attacked.controller
    guard = controller.guard
    deadline = attack_start + quarantine_intervals * interval

    # Every receiver ever quarantined, with its first quarantine time.
    first_quarantined_at: Dict[str, float] = {}
    for t, kind, key, _detail in guard.events:
        if kind == "quarantine":
            first_quarantined_at.setdefault(str(key[1]), t)
    pr = quarantine_precision_recall(first_quarantined_at, LIARS)

    liars: Dict[str, Dict[str, Any]] = {}
    liars_ok = True
    for rid, mode in LIARS.items():
        at = first_quarantined_at.get(rid)
        caught = at is not None and at <= deadline
        liars_ok = liars_ok and caught
        liars[rid] = {
            "mode": mode,
            "quarantined_at": at,
            "within_deadline": caught,
            "still_quarantined": any(
                k[1] == rid for k in guard.quarantined_keys()
            ),
        }

    honest: Dict[str, Dict[str, Any]] = {}
    honest_ok = True
    for h in attacked.receivers:
        rid = str(h.receiver_id)
        if rid in LIARS:
            continue
        divergence = mean_level_divergence(
            h.trace, baseline_traces[rid], attack_start, duration
        )
        ever_quarantined = rid in first_quarantined_at
        within = divergence <= DIVERGENCE_BUDGET and not ever_quarantined
        honest_ok = honest_ok and within
        honest[rid] = {
            "node": h.node,
            "final_level": h.receiver.level,
            "baseline_final_level": next(
                b.receiver.level for b in baseline.receivers
                if str(b.receiver_id) == rid
            ),
            "mean_divergence": divergence,
            "ever_quarantined": ever_quarantined,
            "ok": within,
        }

    false_quarantines = sorted(set(first_quarantined_at) - set(LIARS))
    ok = liars_ok and honest_ok and not false_quarantines
    return {
        "seed": seed,
        "duration": duration,
        "interval": interval,
        "attack_start": attack_start,
        "quarantine_deadline": deadline,
        "divergence_budget": DIVERGENCE_BUDGET,
        "plan": plan.to_dicts(),
        "fault_log": fault_log_entries(injector.log),
        "liars": liars,
        "honest": honest,
        "false_quarantines": false_quarantines,
        "precision": pr["precision"],
        "recall": pr["recall"],
        "guard": guard.summary(),
        "ok": ok,
    }


def render_byzantine_report(result: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`run_byzantine` result."""
    lines = [
        f"byzantine seed={result['seed']} duration={result['duration']:.0f}s "
        f"attack@{result['attack_start']:.0f}s "
        f"(quarantine by {result['quarantine_deadline']:.0f}s, "
        f"honest within {result['divergence_budget']:.1f} layers of baseline)",
        "fault log:",
    ]
    for ev in result["fault_log"]:
        lines.append(f"  t={ev['time']:7.2f}  {ev['kind']:<18} {ev['detail']}")
    lines.append("liars:")
    for rid, r in result["liars"].items():
        at = "never" if r["quarantined_at"] is None else f"t={r['quarantined_at']:.2f}"
        lines.append(
            f"  {rid} ({r['mode']}): quarantined {at} "
            f"{'OK' if r['within_deadline'] else 'TOO LATE'}"
            f"{', still held' if r['still_quarantined'] else ', released'}"
        )
    lines.append("honest receivers:")
    for rid, r in result["honest"].items():
        lines.append(
            f"  {rid}@{r['node']}: level={r['final_level']} "
            f"(baseline {r['baseline_final_level']}), "
            f"divergence {r['mean_divergence']:.2f} layers "
            f"{'OK' if r['ok'] else 'DEGRADED'}"
        )
    guard = result["guard"]
    strikes = ", ".join(f"{k}={v}" for k, v in sorted(guard["strikes"].items())) or "none"
    rejections = ", ".join(
        f"{k}={v}" for k, v in sorted(guard["rejections"].items())
    ) or "none"
    lines.append(f"guard: strikes {strikes}; rejections {rejections}")
    lines.append(
        f"precision={result['precision']:.2f} recall={result['recall']:.2f} "
        f"false quarantines: {result['false_quarantines'] or 'none'}"
    )
    lines.append("RESULT: " + (
        "OK — liars quarantined, honest receivers unharmed"
        if result["ok"] else "FAILED — see above"
    ))
    return "\n".join(lines)
