"""The paper's figures, its table and our ablations: one driver and one gate
per result file.

Every file under ``benchmarks/results/`` other than the experiments' is one
row of :data:`repro.cli.FIGURES`, made by a driver here and judged by the
gate next to it.  A driver takes ``duration`` (and ``seed``, defaulting to
the one its committed file was made with) and returns the JSON document; a
gate takes ``(document, duration)`` and returns the checks that failed — the
paper's shape claims, as assertions on the document.

Durations: the paper simulates 1200 s.  A pure-Python per-packet simulator is
orders of magnitude slower than ns-2's C++ core, so each row's default
horizon (120-300 s, in the figure table) is shorter; ``--duration 1200``
runs the paper's.  The *shape* of every result is stable across horizons
past the ~60 s warmup.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..baselines.oracle import OracleController
from ..baselines.static import StaticController
from ..core.config import TopoSenseConfig
from ..core.decision_table import BwEquality, internal_action, leaf_action
from ..media.layers import PAPER_SCHEDULE, LayerSchedule
from ..metrics.deviation import mean_relative_deviation
from ..metrics.stability import worst_receiver_stability
from ..simnet.queues import REDQueue
from ..simnet.rng import Pcg64, pairwise_sum
from .domains import build_two_domain_topology
from .scenario import Scenario
from .tiered import build_tiered_topology
from .topologies import build_topology_a, build_topology_b

__all__ = [
    "TRAFFIC_MODELS",
    "fig6_stability_topology_a",
    "fig7_stability_topology_b",
    "fig8_fairness",
    "fig9_timeseries",
    "fig10_staleness",
    "table1_rows",
    "ablation_backoff",
    "ablation_baselines",
    "ablation_expedited_leave",
    "ablation_granularity",
    "ablation_interval",
    "ablation_leave_latency",
    "ablation_loss_smoothing",
    "ablation_red",
    "ablation_reset_period",
    "control_traffic",
    "hierarchy_domains",
    "hierarchy_tiered",
]

#: The three traffic models every figure of the paper sweeps.
TRAFFIC_MODELS: Tuple[Tuple[str, float], ...] = (("cbr", 0.0), ("vbr", 3.0), ("vbr", 6.0))

#: The figures' sweeps, read when a driver runs (a test patches them).
FIG6_RECEIVER_COUNTS: Tuple[int, ...] = (2, 4, 8)
FIG7_SESSION_COUNTS: Tuple[int, ...] = (2, 4, 8)
FIG8_SESSION_COUNTS: Tuple[int, ...] = (2, 4, 8, 16)
FIG10_STALENESS: Tuple[float, ...] = (0.0, 2.0, 4.0, 8.0, 12.0, 18.0)
FIG10_RECEIVER_COUNTS: Tuple[int, ...] = (2, 4, 8)

#: One shape check: its name and a predicate over the document.
Check = Tuple[str, Callable[[], Any]]

#: What reading a document that lacks a number raises: ``None < 1.0``, a
#: missing row or level, a short list unpacked, a zero count divided by.
_UNREADABLE = (TypeError, LookupError, ValueError, ArithmeticError)


def _gate(checks: Callable[[Any, Optional[float]], Iterator[Check]]
          ) -> Callable[[Any, Optional[float]], List[str]]:
    """Make a gate ``(document, duration) -> failed check names`` from a
    generator of :data:`Check` pairs.  Each predicate is called as soon as
    it is yielded, so it may close over the generator's loop variables.

    A gate reports and never raises on a document it cannot read: a
    predicate that compares a ``None`` or looks up a missing row is a failed
    check carrying the error, and so is a gate body that stops early.
    """

    @functools.wraps(checks)
    def gate(doc: Any, duration: Optional[float]) -> List[str]:
        failed = []
        try:
            for name, holds in checks(doc, duration):
                try:
                    if not holds():
                        failed.append(name)
                except _UNREADABLE as exc:
                    failed.append(f"{name} (cannot evaluate: {type(exc).__name__}: {exc})")
        except _UNREADABLE as exc:
            failed.append(f"gate stopped (cannot evaluate: {type(exc).__name__}: {exc})")
        return failed

    return gate


def _label(traffic: str, p: float) -> str:
    return "CBR" if traffic == "cbr" else f"VBR(P={p:g})"


# ----------------------------------------------------------------------
# Figure 6 — stability in Topology A
# ----------------------------------------------------------------------
def fig6_stability_topology_a(*, duration: float, seed: int = 1) -> List[Dict[str, Any]]:
    """Max subscription changes by any receiver + mean time between changes.

    One row per (traffic model, receiver count), mirroring the two panels of
    the paper's Fig. 6.
    """
    rows = []
    for traffic, p in TRAFFIC_MODELS:
        for n in FIG6_RECEIVER_COUNTS:
            sc = build_topology_a(
                n_receivers=n, traffic=traffic, peak_to_mean=p, seed=seed
            )
            sc.run(duration)
            changes, gap = worst_receiver_stability(
                [h.trace for h in sc.receivers], 0.0, duration
            )
            rows.append(
                {
                    "figure": "6",
                    "traffic": _label(traffic, p),
                    "n_receivers": n,
                    "duration": duration,
                    "max_changes": changes,
                    "mean_gap_s": gap,
                }
            )
    return rows


@_gate
def fig6_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Paper: "the subscription level is fairly stable over time" for CBR
    and VBR across receiver counts.  Changes are sparse (gaps far above the
    2 s interval) and adding receivers does not blow stability up.  (No
    CBR-vs-VBR ordering on the change *count*: bursty traffic keeps
    back-offs armed longer, so VBR can probe less often while deviating
    more — the quality ordering is Fig. 8's check.)"""
    yield "9 rows", lambda: len(rows) == 9
    for r in rows:
        at = f"{r['traffic']} n={r['n_receivers']}"
        yield f"{at}: max_changes <= duration / 6", lambda: r["max_changes"] <= duration / 6
        yield f"{at}: mean_gap_s >= 4", lambda: r["mean_gap_s"] >= 4.0
    for label in dict.fromkeys(r["traffic"] for r in rows):
        per_n = sorted((r["n_receivers"], r["max_changes"]) for r in rows if r["traffic"] == label)
        yield (f"{label}: max_changes at the most receivers <= 3x the fewest + 10",
               lambda: per_n[-1][1] <= 3 * per_n[0][1] + 10)


# ----------------------------------------------------------------------
# Figure 7 — stability in Topology B
# ----------------------------------------------------------------------
def fig7_stability_topology_b(*, duration: float, seed: int = 1) -> List[Dict[str, Any]]:
    """Max changes in any session + mean gap, vs number of sessions."""
    rows = []
    for traffic, p in TRAFFIC_MODELS:
        for n in FIG7_SESSION_COUNTS:
            sc = build_topology_b(
                n_sessions=n, traffic=traffic, peak_to_mean=p, seed=seed
            )
            sc.run(duration)
            changes, gap = worst_receiver_stability(
                [h.trace for h in sc.receivers], 0.0, duration
            )
            rows.append(
                {
                    "figure": "7",
                    "traffic": _label(traffic, p),
                    "n_sessions": n,
                    "duration": duration,
                    "max_changes": changes,
                    "mean_gap_s": gap,
                }
            )
    return rows


@_gate
def fig7_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Fig. 6's stability over a shared bottleneck: changes stay sparse,
    and the worst of 8 sessions is within 3x the 2-session case."""
    yield "9 rows", lambda: len(rows) == 9
    for r in rows:
        at = f"{r['traffic']} n={r['n_sessions']}"
        yield f"{at}: max_changes <= duration / 5", lambda: r["max_changes"] <= duration / 5
        yield f"{at}: mean_gap_s >= 3", lambda: r["mean_gap_s"] >= 3.0
    for label in ("CBR", "VBR(P=3)", "VBR(P=6)"):
        per_n = {r["n_sessions"]: r["max_changes"] for r in rows if r["traffic"] == label}
        yield (f"{label}: max_changes at 8 sessions <= max(3x, +20) the 2-session case",
               lambda: per_n[8] <= max(3 * per_n[2], per_n[2] + 20))


# ----------------------------------------------------------------------
# Figure 8 — inter-session fairness in Topology B
# ----------------------------------------------------------------------
def fig8_fairness(*, duration: float, seed: int = 1) -> List[Dict[str, Any]]:
    """Mean relative deviation from the optimal 4 layers, for the first and
    second halves of the run (the paper's 0-600 s / 600-1200 s split)."""
    half = duration / 2.0
    rows = []
    for traffic, p in TRAFFIC_MODELS:
        for n in FIG8_SESSION_COUNTS:
            sc = build_topology_b(
                n_sessions=n, traffic=traffic, peak_to_mean=p, seed=seed
            )
            res = sc.run(duration)
            optimal = res.optimal_levels()
            pairs = [
                (h.trace, float(optimal[(h.session_id, h.receiver_id)]))
                for h in sc.receivers
            ]
            rows.append(
                {
                    "figure": "8",
                    "traffic": _label(traffic, p),
                    "n_sessions": n,
                    "duration": duration,
                    "deviation_first_half": mean_relative_deviation(pairs, 0.0, half),
                    "deviation_second_half": mean_relative_deviation(pairs, half, duration),
                }
            )
    return rows


@_gate
def fig8_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Paper: "A small relative deviation in both these intervals indicates
    that TopoSense imposes fairness among competing sessions irrespective of
    the time intervals", up to 16 sessions.  Deviation stays moderate in
    both halves, does not decay over time, and CBR is at least as good as
    VBR(P=6)."""
    yield "12 rows", lambda: len(rows) == 12
    for r in rows:
        at = f"{r['traffic']} n={r['n_sessions']}"
        first, second = "deviation_first_half", "deviation_second_half"
        yield f"{at}: {first} < 0.75 (includes warmup)", lambda: r[first] < 0.75
        yield f"{at}: {second} < 0.60", lambda: r[second] < 0.60
        yield f"{at}: {second} <= {first} + 0.25", lambda: r[second] <= r[first] + 0.25

    def mean_dev(label: str) -> float:
        devs = [r["deviation_second_half"] for r in rows if r["traffic"] == label]
        return pairwise_sum(devs) / len(devs)

    yield ("CBR mean second-half deviation <= VBR(P=6)'s + 0.05",
           lambda: mean_dev("CBR") <= mean_dev("VBR(P=6)") + 0.05)


# ----------------------------------------------------------------------
# Figure 9 — subscription + loss time series, 4 competing VBR sessions
# ----------------------------------------------------------------------
def fig9_timeseries(
    n_sessions: int = 4,
    peak_to_mean: float = 3.0,
    *,
    duration: float,
    seed: int = 1,
) -> Dict[str, Any]:
    """Per-session subscription traces and loss-rate series.

    Returns the raw series plus summary statistics used to check the shape:
    sessions should sit mostly at 4 layers, with occasional excursions to
    5/6 followed by loss-driven back-off.
    """
    sc = build_topology_b(
        n_sessions=n_sessions, traffic="vbr", peak_to_mean=peak_to_mean, seed=seed
    )
    sc.run(duration)
    sessions = {}
    warmup = min(60.0, duration / 4)
    for h in sc.receivers:
        trace = h.trace
        losses = h.receiver.loss_series
        sessions[h.receiver_id] = {
            "subscription": list(zip(trace.times, trace.values)),
            "loss": list(zip(losses.times, losses.values)),
            "mean_level": trace.time_weighted_mean(warmup, duration),
            "max_level": max(trace.values),
            "over_subscribed": any(v > 4 for v in trace.values),
        }
    return {
        "figure": "9",
        "duration": duration,
        "n_sessions": n_sessions,
        "sessions": sessions,
    }


@_gate
def fig9_gate(data: Any, duration: Optional[float]) -> Iterator[Check]:
    """Paper: "some of the sessions over-subscribe to layers 5 and 6 at
    several points in time ... However, heavy losses on adding layer 6 allow
    TopoSense to compute the link capacity and the system returns to a
    stable state."  Sessions hover near the 4-layer optimum, one
    over-subscribes past 4, and every session sees loss."""
    sessions = data["sessions"]
    levels = [s["mean_level"] for s in sessions.values()]
    yield "4 sessions", lambda: len(sessions) == 4
    yield "every mean_level >= 2", lambda: 2.0 <= min(levels)
    yield "every mean_level <= 5.5", lambda: max(levels) <= 5.5
    yield "some session over-subscribes", lambda: any(s["over_subscribed"] for s in sessions.values())
    yield ("every session observes loss",
           lambda: all(any(v > 0 for _, v in s["loss"]) for s in sessions.values()))


# ----------------------------------------------------------------------
# Figure 10 — impact of stale topology information (Topology A, VBR P=3)
# ----------------------------------------------------------------------
def fig10_staleness(*, duration: float, seed: int = 1) -> List[Dict[str, Any]]:
    """Mean relative deviation vs staleness of discovery information."""
    warmup = min(60.0, duration / 4)
    rows = []
    for n in FIG10_RECEIVER_COUNTS:
        for staleness in FIG10_STALENESS:
            sc = build_topology_a(
                n_receivers=n, traffic="vbr", peak_to_mean=3.0,
                seed=seed, staleness=staleness,
            )
            res = sc.run(duration)
            rows.append(
                {
                    "figure": "10",
                    "n_receivers": n,
                    "staleness_s": staleness,
                    "duration": duration,
                    "deviation": res.mean_deviation(warmup, duration),
                }
            )
    return rows


@_gate
def fig10_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Paper: "performance deteriorates with stale information", yet it
    "does appear to perform well even with information as old as 8 seconds".
    VBR noise makes per-point ordering unreliable, so on aggregates: nothing
    collapses, mild staleness (<= 4 s) stays near fresh, and heavy staleness
    (>= 12 s) is no better than fresh."""
    dev = {(r["n_receivers"], r["staleness_s"]): r["deviation"] for r in rows}
    yield "18 rows", lambda: len(rows) == 18
    for r in rows:
        yield (f"n={r['n_receivers']} staleness {r['staleness_s']:g} s: deviation < 1",
               lambda: r["deviation"] < 1.0)
    for n in (2, 4, 8):
        yield (f"n={n}: mean deviation at 2-4 s stale <= fresh + 0.20",
               lambda: (dev[n, 2.0] + dev[n, 4.0]) / 2 <= dev[n, 0.0] + 0.20)
        yield (f"n={n}: mean deviation at 12-18 s stale >= fresh - 0.10",
               lambda: (dev[n, 12.0] + dev[n, 18.0]) / 2 >= dev[n, 0.0] - 0.10)


# ----------------------------------------------------------------------
# Table I — the demand decision table itself
# ----------------------------------------------------------------------
def table1_rows(duration: Optional[float] = None, seed: int = 1) -> List[Dict[str, Any]]:
    """Enumerate the full decision table (24 leaf + 24 internal cells).

    Nothing is simulated: ``duration`` and ``seed`` are accepted, like every
    driver's, and unused."""
    rows = []
    for kind, fn in (("leaf", leaf_action), ("internal", internal_action)):
        for eq in BwEquality:
            for hist in range(8):
                rows.append(
                    {
                        "table": "I",
                        "node": kind,
                        "history": hist,
                        "bw_equality": eq.value,
                        "action": fn(hist, eq).value,
                    }
                )
    return rows


@_gate
def table1_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """The row structure the paper prints, its headline cells verbatim, and
    ADD only ever with a congestion-free current interval."""
    cells = {(r["node"], r["history"], r["bw_equality"]): r["action"] for r in rows}
    yield "48 cells (8 histories x 3 equalities x leaf/internal)", lambda: len(rows) == 48
    for kind in ("leaf", "internal"):
        yield f"24 {kind} cells", lambda: sum(r["node"] == kind for r in rows) == 24
    for node, hist, eq, action in (
        ("leaf", 0, "lesser", "add_layer"),
        ("leaf", 1, "lesser", "drop_if_high_loss"),
        ("leaf", 7, "equal", "reduce_half_old"),
        ("internal", 0, "greater", "accept_children"),
        ("internal", 7, "greater", "reduce_half_recent"),
        ("internal", 3, "lesser", "maintain"),
    ):
        yield f"{node} history {hist} {eq}: {action}", lambda: cells[node, hist, eq] == action
    for r in rows:
        if r["action"] == "add_layer":
            yield (f"{r['node']} history {r['history']} {r['bw_equality']}: add_layer only "
                   "without congestion now", lambda: r["history"] & 0b001 == 0)


# ----------------------------------------------------------------------
# Ablations the paper discusses but does not plot
# ----------------------------------------------------------------------
def ablation_backoff(*, duration: float, seed: int = 4) -> List[Dict[str, Any]]:
    """Back-off range swept on Topology A (paper: stability "can be
    controlled using the back-off interval")."""
    rows = []
    for lo, hi in ((5.0, 10.0), (15.0, 45.0), (60.0, 120.0)):
        cfg = TopoSenseConfig(backoff_min=lo, backoff_max=hi)
        sc = build_topology_a(n_receivers=4, traffic="cbr", seed=seed, config=cfg)
        result = sc.run(duration)
        changes, gap = result.stability()
        rows.append(
            {
                "backoff": f"{lo:g}-{hi:g}s",
                "max_changes": changes,
                "mean_gap_s": gap,
                "deviation": result.mean_deviation(min(60.0, duration / 4)),
            }
        )
    return rows


@_gate
def ablation_backoff_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Longer back-off means fewer probes: no more changes than the
    shortest setting, and longer gaps between them."""
    yield ("60-120 s back-off: max_changes <= the 5-10 s setting's",
           lambda: rows[2]["max_changes"] <= rows[0]["max_changes"])
    yield ("60-120 s back-off: mean_gap_s >= the 5-10 s setting's",
           lambda: rows[2]["mean_gap_s"] >= rows[0]["mean_gap_s"])


def _baseline_variant(name: str, duration: float, seed: int) -> Dict[str, Any]:
    kwargs = dict(n_receivers=4, traffic="vbr", peak_to_mean=3, seed=seed)
    if name == "rlm":
        sc = build_topology_a(receiver_mode="rlm", **kwargs)
    elif name == "static":
        sc = build_topology_a(algorithm=StaticController(level=4), **kwargs)
    elif name == "oracle":
        probe = build_topology_a(**kwargs)
        oracle = OracleController(probe.network, list(probe.plans.values()))
        sc = build_topology_a(algorithm=oracle, **kwargs)
    else:
        sc = build_topology_a(**kwargs)
    result = sc.run(duration)
    warmup = min(60.0, duration / 4)
    b_loss = [
        h.receiver.loss_series.mean(warmup, duration)
        for h in sc.receivers if h.receiver_id.startswith("B")
    ]
    return {
        "controller": name,
        "deviation": result.mean_deviation(warmup),
        "worst_changes": result.stability()[0],
        "narrowband_loss": sum(b_loss) / len(b_loss),
    }


def ablation_baselines(*, duration: float, seed: int = 21) -> List[Dict[str, Any]]:
    """Topology A under four controllers: the oracle (true capacities),
    TopoSense, topology-blind RLM probing, and a static full-rate pin."""
    return [_baseline_variant(v, duration, seed)
            for v in ("oracle", "toposense", "rlm", "static")]


@_gate
def ablation_baselines_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """The oracle is near-optimal; TopoSense beats the static pin; it needs
    at most half RLM's changes (coordination pays in stability); the static
    pin drowns the narrowband class in loss and both adaptive controllers
    keep it under half that."""
    by = {r["controller"]: r for r in rows}
    yield "oracle: deviation < 0.15", lambda: by["oracle"]["deviation"] < 0.15
    yield ("toposense: deviation < static's",
           lambda: by["toposense"]["deviation"] < by["static"]["deviation"])
    yield ("toposense: 2 x worst_changes <= rlm's",
           lambda: by["toposense"]["worst_changes"] * 2 <= by["rlm"]["worst_changes"])
    yield "static: narrowband_loss > 0.3", lambda: by["static"]["narrowband_loss"] > 0.3
    for name in ("toposense", "rlm"):
        yield (f"{name}: narrowband_loss < static's / 2",
               lambda: by[name]["narrowband_loss"] < by["static"]["narrowband_loss"] / 2)


def ablation_expedited_leave(*, duration: float, seed: int = 12) -> List[Dict[str, Any]]:
    """Topology A with the classic 2 s IGMP leave latency, standard vs
    expedited (router-assisted) prunes (paper §V)."""
    rows = []
    for expedited in (False, True):
        sc = build_topology_a(n_receivers=4, traffic="cbr", seed=seed, leave_latency=2.0)
        sc.mcast.expedited_leave = expedited
        result = sc.run(duration)
        warmup = min(60.0, duration / 4)
        mean_loss = sum(
            h.receiver.loss_series.mean(warmup, duration) for h in sc.receivers
        ) / len(sc.receivers)
        rows.append(
            {
                "expedited": expedited,
                "total_drops": sc.network.total_drops(),
                "mean_loss": mean_loss,
                "deviation": result.mean_deviation(warmup),
            }
        )
    return rows


@_gate
def ablation_expedited_leave_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Expedited prunes shed excess traffic sooner: no more queue drops."""
    yield ("expedited: total_drops <= standard's",
           lambda: rows[1]["total_drops"] <= rows[0]["total_drops"])


def _granularity_scenario(schedule: LayerSchedule, seed: int) -> Scenario:
    sc = Scenario(seed=seed)
    sc.add_node("src")
    sc.add_node("isp")
    sc.add_node("home")
    sc.add_link("src", "isp", bandwidth=10e6)
    sc.add_link("isp", "home", bandwidth=500e3)
    sess = sc.add_session("src", traffic="cbr", schedule=schedule)
    sc.attach_controller("src")
    sc.add_receiver(sess.session_id, "home", receiver_id="V")
    return sc


def ablation_granularity(*, duration: float, seed: int = 16) -> List[Dict[str, Any]]:
    """The paper's 6 doubling layers vs 11 ~sqrt(2)-growth layers covering
    the same range, one receiver behind 500 Kb/s (paper §V)."""
    fine = LayerSchedule(n_layers=11, base_rate=32_000.0, growth=math.sqrt(2.0))
    rows = []
    for label, schedule in (("coarse-6", PAPER_SCHEDULE), ("fine-11", fine)):
        sc = _granularity_scenario(schedule, seed)
        sc.run(duration)
        h = sc.receivers[0]
        warmup = min(60.0, duration / 4)
        optimal = schedule.max_level_for(500e3)
        t_reach = next(
            (t for t, v in zip(h.trace.times, h.trace.values) if v >= optimal),
            None,
        )
        peak_loss = max(h.receiver.loss_series.values) if len(
            h.receiver.loss_series
        ) else 0.0
        rows.append(
            {
                "schedule": label,
                "n_layers": schedule.n_layers,
                "optimal_level": optimal,
                "time_to_optimal_s": t_reach,
                "peak_loss": peak_loss,
                "mean_bw_kbps": h.trace and schedule.cumulative(
                    round(h.trace.time_weighted_mean(warmup, duration))
                ) / 1e3,
            }
        )
    return rows


@_gate
def ablation_granularity_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """The paper's trade-off: finer layers climb in more steps (slower to
    the optimum) but each over-probe is smaller (a milder worst loss)."""
    coarse, fine = rows
    yield "coarse-6 reaches its optimum", lambda: coarse["time_to_optimal_s"] is not None
    yield "fine-11 reaches its optimum", lambda: fine["time_to_optimal_s"] is not None
    yield ("fine-11: time_to_optimal_s >= coarse-6's",
           lambda: fine["time_to_optimal_s"] >= coarse["time_to_optimal_s"])
    yield ("fine-11: peak_loss <= coarse-6's + 0.05",
           lambda: fine["peak_loss"] <= coarse["peak_loss"] + 0.05)


def ablation_interval(*, duration: float, seed: int = 6) -> List[Dict[str, Any]]:
    """Control interval swept on Topology A with VBR traffic (paper §V
    "Interval size")."""
    rows = []
    for interval in (1.0, 2.0, 4.0, 8.0):
        cfg = TopoSenseConfig(interval=interval)
        sc = build_topology_a(
            n_receivers=4, traffic="vbr", peak_to_mean=3, seed=seed, config=cfg
        )
        result = sc.run(duration)
        changes, gap = result.stability()
        # Time to first reach the broadband optimum of 4 layers.
        t_reach = None
        for t, v in zip(sc.receivers[0].trace.times, sc.receivers[0].trace.values):
            if v >= 4:
                t_reach = t
                break
        rows.append(
            {
                "interval_s": interval,
                "max_changes": changes,
                "mean_gap_s": gap,
                "deviation": result.mean_deviation(min(60.0, duration / 4)),
                "time_to_4_layers_s": t_reach,
            }
        )
    return rows


@_gate
def ablation_interval_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Paper: "a large interval implies slow reaction time" — layers are
    added once per interval — and short intervals react to burst noise."""
    by = {r["interval_s"]: r for r in rows}
    yield ("8 s interval: time_to_4_layers_s > the 2 s interval's",
           lambda: by[8.0]["time_to_4_layers_s"] > by[2.0]["time_to_4_layers_s"])
    yield ("8 s interval: max_changes <= the 1 s interval's",
           lambda: by[8.0]["max_changes"] <= by[1.0]["max_changes"])


def ablation_leave_latency(*, duration: float, seed: int = 8) -> List[Dict[str, Any]]:
    """IGMP leave latency swept on Topology A (paper §V: "the latency in
    dropping a layer can cause congestion")."""
    rows = []
    for latency in (0.1, 1.0, 4.0):
        sc = build_topology_a(n_receivers=4, traffic="cbr", seed=seed, leave_latency=latency)
        result = sc.run(duration)
        warmup = min(60.0, duration / 4)
        mean_loss = sum(
            h.receiver.loss_series.mean(warmup, duration) for h in sc.receivers
        ) / len(sc.receivers)
        rows.append(
            {
                "leave_latency_s": latency,
                "mean_loss": mean_loss,
                "deviation": result.mean_deviation(warmup),
                "total_drops": sc.network.total_drops(),
            }
        )
    return rows


@_gate
def ablation_leave_latency_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Slower prunes leave more excess traffic in the network."""
    by = {r["leave_latency_s"]: r for r in rows}
    yield ("4 s latency: total_drops >= the 0.1 s latency's",
           lambda: by[4.0]["total_drops"] >= by[0.1]["total_drops"])
    yield ("4 s latency: mean_loss >= the 0.1 s latency's - 0.01",
           lambda: by[4.0]["mean_loss"] >= by[0.1]["mean_loss"] - 0.01)


def ablation_loss_smoothing(*, duration: float, seed: int = 14) -> List[Dict[str, Any]]:
    """Raw vs EWMA-smoothed loss under heavy VBR (P=6) on Topology A (paper
    §V: "differentiate between bursty losses and sustained congestion")."""
    rows = []
    for ewma in (0.0, 0.4):
        cfg = TopoSenseConfig(loss_ewma=ewma)
        sc = build_topology_a(
            n_receivers=4, traffic="vbr", peak_to_mean=6, seed=seed, config=cfg
        )
        result = sc.run(duration)
        warmup = min(60.0, duration / 4)
        a_means = [
            h.trace.time_weighted_mean(warmup, duration)
            for h in sc.receivers if h.receiver_id.startswith("A")
        ]
        rows.append(
            {
                "loss_ewma": ewma,
                "deviation": result.mean_deviation(warmup),
                "worst_changes": result.stability()[0],
                "broadband_mean_level": sum(a_means) / len(a_means),
            }
        )
    return rows


@_gate
def ablation_loss_smoothing_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Smoothing does not make heavy-burst performance worse."""
    raw, smoothed = rows
    yield ("EWMA 0.4: deviation <= raw's + 0.05",
           lambda: smoothed["deviation"] <= raw["deviation"] + 0.05)


def _red_scenario(seed: int, red: bool) -> Scenario:
    sc = Scenario(seed=seed)
    sc.add_node("src")
    sc.add_node("core")
    sc.add_node("agg")
    sc.add_link("src", "core", bandwidth=10e6)
    sc.add_link("core", "agg", bandwidth=10e6)
    queues = itertools.count()

    def factory() -> REDQueue:
        # One stream per queue: on a shared one, the order in which a node
        # fans a packet out to its children would decide which queue gets
        # which draw.
        return REDQueue(Pcg64([seed + 1, next(queues)]))

    for i in range(2):
        sc.add_node(f"r{i}")
        kw = dict(queue_factory=factory) if red else {}
        sc.add_link("agg", f"r{i}", bandwidth=500e3, **kw)
    sess = sc.add_session("src", traffic="vbr", peak_to_mean=6)
    sc.attach_controller("src")
    for i in range(2):
        sc.add_receiver(sess.session_id, f"r{i}", receiver_id=f"R{i}")
    return sc


def ablation_red(*, duration: float, seed: int = 22) -> List[Dict[str, Any]]:
    """Drop-tail vs RED access queues under VBR(P=6) (paper §V: "burstiness
    can cause buffer overflows at routers")."""
    rows = []
    for red in (False, True):
        sc = _red_scenario(seed, red)
        result = sc.run(duration)
        warmup = min(60.0, duration / 4)
        mean_level = sum(
            h.trace.time_weighted_mean(warmup, duration) for h in sc.receivers
        ) / len(sc.receivers)
        rows.append(
            {
                "queue": "RED" if red else "DropTail",
                "deviation": result.mean_deviation(warmup),
                "mean_level": mean_level,
                "worst_changes": result.stability()[0],
            }
        )
    return rows


@_gate
def ablation_red_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Exploratory: both disciplines keep the system functional (no
    ordering asserted; RED's early drops are a signal, not a failure)."""
    for r in rows:
        yield f"{r['queue']}: 1 <= mean_level <= 6", lambda: 1.0 <= r["mean_level"] <= 6.0
        yield f"{r['queue']}: deviation < 0.8", lambda: r["deviation"] < 0.8


def ablation_reset_period(*, duration: float, seed: int = 10) -> List[Dict[str, Any]]:
    """Capacity-estimate reset period swept on Topology B (paper §III: the
    capacity "is reset to infinity at periodic intervals")."""
    rows = []
    for period in (5, 15, 45):
        cfg = TopoSenseConfig(capacity_reset_period=period)
        sc = build_topology_b(n_sessions=4, traffic="cbr", seed=seed, config=cfg)
        result = sc.run(duration)
        warmup = min(60.0, duration / 4)
        over_time = 0.0
        for h in sc.receivers:
            for t0, t1, v in h.trace.segments(warmup, duration):
                if v > 4:
                    over_time += t1 - t0
        rows.append(
            {
                "reset_period_intervals": period,
                "deviation": result.mean_deviation(warmup),
                "over_subscribed_time_s": over_time,
                "worst_changes": result.stability()[0],
            }
        )
    return rows


@_gate
def ablation_reset_period_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Each reset re-opens exploration (Fig. 9's excursions), so frequent
    resets spend at least as long over-subscribed."""
    by = {r["reset_period_intervals"]: r for r in rows}
    yield ("period 5: over_subscribed_time_s >= period 45's - 1",
           lambda: by[5]["over_subscribed_time_s"] >= by[45]["over_subscribed_time_s"] - 1.0)


def control_traffic(*, duration: float, seed: int = 18) -> List[Dict[str, Any]]:
    """Reports received and suggestions sent per control interval vs the
    receiver count on Topology A (paper §V: "linear with respect to the
    number of receivers").  ``None`` per interval when no interval ran."""
    rows = []
    for n in (2, 4, 8, 16):
        sc = build_topology_a(n_receivers=n, traffic="cbr", seed=seed)
        sc.run(duration)
        ctrl = sc.controller
        intervals = ctrl.updates_run
        rows.append(
            {
                "n_receivers": n,
                "reports_per_interval": ctrl.reports_received / intervals if intervals else None,
                "suggestions_per_interval":
                    ctrl.suggestions_sent / intervals if intervals else None,
            }
        )
    return rows


@_gate
def control_traffic_gate(rows: Any, duration: Optional[float]) -> Iterator[Check]:
    """Per-receiver control traffic is constant, so totals scale linearly:
    ~1 report and at most ~1 suggestion per receiver per interval."""
    for r in rows:
        n = r["n_receivers"]
        yield (f"n={n}: 0.5 <= reports per receiver-interval <= 1.5",
               lambda: 0.5 <= r["reports_per_interval"] / r["n_receivers"] <= 1.5)
        yield (f"n={n}: suggestions per receiver-interval <= 1.2",
               lambda: r["suggestions_per_interval"] / r["n_receivers"] <= 1.2)

    def linear() -> bool:
        ratio = rows[-1]["reports_per_interval"] / rows[0]["reports_per_interval"]
        expected = rows[-1]["n_receivers"] / rows[0]["n_receivers"]
        return abs(ratio - expected) <= 0.35 * expected

    yield "reports per interval grow with receivers (within 35 %)", linear


def hierarchy_domains(*, duration: float, seed: int = 20) -> Dict[str, Any]:
    """Two domains, one controller each (Figs. 2-3): each steers its own
    receivers to its own optimum with no knowledge of the other."""
    sc = build_two_domain_topology(receivers_per_domain=2, seed=seed)
    result = sc.run(duration)
    warmup = min(60.0, duration / 4)
    out: Dict[str, Any] = {}
    for prefix, optimal in (("D1", 4), ("D2", 2)):
        hs = [h for h in sc.receivers if h.receiver_id.startswith(prefix)]
        mean = sum(h.trace.time_weighted_mean(warmup, duration) for h in hs) / len(hs)
        out[prefix] = {"mean_level": mean, "optimal": optimal}
    out["deviation"] = result.mean_deviation(warmup)
    return out


@_gate
def hierarchy_domains_gate(out: Any, duration: Optional[float]) -> Iterator[Check]:
    """Each domain converges near its own optimum (4 and 2 layers)."""
    yield "D1: 3 <= mean_level <= 5", lambda: 3.0 <= out["D1"]["mean_level"] <= 5.0
    yield "D2: 1.2 <= mean_level <= 3", lambda: 1.2 <= out["D2"]["mean_level"] <= 3.0
    yield "deviation < 0.5", lambda: out["deviation"] < 0.5


def hierarchy_tiered(*, duration: float, seed: int = 7) -> Dict[str, Any]:
    """TopoSense on a randomized tiered ISP hierarchy (Fig. 2)."""
    sc = build_tiered_topology(seed=seed, max_receivers=8, traffic="cbr")
    result = sc.run(duration)
    warmup = min(60.0, duration / 4)
    optimal = result.optimal_levels()
    return {
        "n_receivers": len(sc.receivers),
        "distinct_optima": len(set(optimal.values())),
        "deviation": result.mean_deviation(warmup),
    }


@_gate
def hierarchy_tiered_gate(out: Any, duration: Optional[float]) -> Iterator[Check]:
    """Receivers with different optima, all tracked closely."""
    yield "distinct_optima >= 2", lambda: out["distinct_optima"] >= 2
    yield "deviation < 0.6", lambda: out["deviation"] < 0.6
