"""Integration tests for the TopoSense orchestrator on synthetic inputs.

These drive :class:`repro.core.toposense.TopoSense` directly with
hand-constructed session trees and reports — no simulator — so multi-interval
control behaviour can be asserted deterministically.
"""

import math

import numpy as np
import pytest

from repro.core.config import TopoSenseConfig
from repro.core.session_topology import SessionTree
from repro.core.toposense import TopoSense
from repro.core.types import ReceiverReport, SessionInput
from repro.media.layers import PAPER_SCHEDULE


def cfg(**kw):
    defaults = dict(
        backoff_min=20.0, backoff_max=20.0, add_probability=1.0,
    )
    defaults.update(kw)
    return TopoSenseConfig(**defaults)


def chain_input(level, loss, bytes_=None, session_id=0):
    """One session: src -> mid -> leaf with a receiver at leaf."""
    tree = SessionTree(session_id, "src", [("src", "mid"), ("mid", "leaf")], ["leaf"])
    if bytes_ is None:
        bytes_ = PAPER_SCHEDULE.cumulative(level) * 2.0 / 8.0 * (1 - loss)
    return SessionInput(
        tree=tree,
        schedule=PAPER_SCHEDULE,
        reports={"leaf": ReceiverReport(loss, bytes_, level)},
    )


def test_clean_receiver_climbs_one_layer_per_confirmed_interval():
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))
    level = 1
    suggestions = []
    for i in range(18):
        out = ts.update(2.0 * (i + 1), [chain_input(level, 0.0)])
        suggested = out[(0, "leaf")]
        suggestions.append(suggested)
        level = min(suggested, level + 1)  # obedient receiver
    # Monotone non-decreasing climb to the top.
    assert suggestions == sorted(suggestions)
    assert suggestions[-1] == 6
    # Confirmation gating: 2 held intervals per step, so well over 5 ticks.
    assert suggestions[4] < 6


def test_congested_receiver_reduced():
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))
    # Obedient climb to 5, then the network starts hurting at level 5.
    def loss_for(level):
        return 0.5 if level >= 5 else 0.0

    level = 1
    t = 0.0
    seen = []
    for _ in range(20):
        t += 2.0
        out = ts.update(t, [chain_input(level, loss_for(level))])
        suggested = out[(0, "leaf")]
        level = min(suggested, level + 1) if suggested > level else suggested
        seen.append(level)
    # The receiver reached 5 at some point but was pushed back below it.
    assert max(seen) >= 5
    assert seen[-1] < 5


def test_reduction_arms_backoff_against_re_add():
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))

    def loss_for(level):
        return 0.6 if level >= 5 else 0.0

    level = 1
    t = 0.0
    trace = []
    for _ in range(24):
        t += 2.0
        out = ts.update(t, [chain_input(level, loss_for(level))])
        suggested = out[(0, "leaf")]
        level = min(suggested, level + 1) if suggested > level else suggested
        trace.append((t, level))
    # Count excursions to level 5: with a 20 s backoff and 48 s horizon,
    # at most a few probes can have happened (not one per interval).
    probes = sum(
        1 for (_, a), (_, b) in zip(trace, trace[1:]) if b >= 5 and a < 5
    )
    assert 1 <= probes <= 3, trace


def test_shared_link_estimated_and_fairly_shared():
    """Two sessions over one shared link: when both crash, the estimate forms
    and both get capped at the fair split."""
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))

    def two_sessions(levels, losses, bytes_):
        inputs = []
        for i in (0, 1):
            tree = SessionTree(
                i, f"s{i}",
                [(f"s{i}", "x"), ("x", "y"), ("y", f"r{i}")],
                [f"r{i}"],
            )
            inputs.append(
                SessionInput(
                    tree=tree,
                    schedule=PAPER_SCHEDULE,
                    reports={f"r{i}": ReceiverReport(losses[i], bytes_[i], levels[i])},
                )
            )
        return inputs

    # Warm up clean at level 4 each.
    t = 0.0
    for _ in range(2):
        t += 2.0
        ts.update(t, two_sessions([4, 4], [0.0, 0.0], [120_000, 120_000]))
    # Both crash: shared (x,y) observed at ~(120k+120k)*8/2 = 960 kb/s.
    t += 2.0
    ts.update(t, two_sessions([5, 5], [0.3, 0.3], [120_000, 120_000]))
    est = ts.estimator.capacity(("x", "y"))
    assert est == pytest.approx(960_000.0, rel=0.01)
    # Per-session links are NOT estimated (shared links only).
    assert ts.estimator.capacity(("s0", "x")) == math.inf
    assert ts.estimator.capacity(("y", "r0")) == math.inf
    # Next interval: each session's supply respects the ~480k fair share.
    t += 2.0
    out = ts.update(t, two_sessions([4, 4], [0.0, 0.0], [120_000, 120_000]))
    for key, level in out.items():
        assert level <= 4


def test_suggestions_cover_every_receiver():
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))
    tree = SessionTree(
        0, "s", [("s", "m"), ("m", "a"), ("m", "b")], ["a", "b"]
    )
    si = SessionInput(
        tree=tree, schedule=PAPER_SCHEDULE,
        reports={
            "a": ReceiverReport(0.0, 10_000, 2),
            "b": ReceiverReport(0.0, 10_000, 3),
        },
    )
    out = ts.update(2.0, [si])
    assert set(out) == {(0, "a"), (0, "b")}


def test_receiver_without_report_gets_conservative_suggestion():
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))
    tree = SessionTree(0, "s", [("s", "m"), ("m", "a")], ["a"])
    si = SessionInput(tree=tree, schedule=PAPER_SCHEDULE, reports={})
    out = ts.update(2.0, [si])
    assert out[(0, "a")] >= 1


def test_empty_session_produces_no_suggestions():
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))
    tree = SessionTree(0, "s", [], [])
    out = ts.update(2.0, [SessionInput(tree=tree, schedule=PAPER_SCHEDULE)])
    assert len(out) == 0


def test_diagnostics_exposed():
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))
    ts.update(2.0, [chain_input(3, 0.2)])
    diag = ts.last_diagnostics[0]
    assert set(diag) >= {"loss", "congestion", "demand", "actions", "history"}
    assert diag["loss"]["leaf"] == pytest.approx(0.2)


def test_update_with_no_sessions():
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))
    out = ts.update(2.0, [])
    assert len(out) == 0


def test_default_construction():
    ts = TopoSense(rng=np.random.default_rng(0))
    assert ts.config.interval > 0
    out = ts.update(2.0, [chain_input(1, 0.0)])
    assert out[(0, "leaf")] >= 1


def test_interval_inferred_from_update_times():
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))
    ts.update(2.0, [chain_input(5, 0.0)])
    ts.update(4.0, [chain_input(5, 0.0)])
    # Crash with known bytes over a 2-second interval on a shared... not
    # shared here; just assert internal clock advanced without error.
    assert ts._last_update == 4.0


def test_handleable_caps_demand():
    """A finite capacity estimate on a shared link bounds the subtree's
    demand via the handleable pass."""
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))

    def sessions(levels, losses, bytes_):
        inputs = []
        for i in (0, 1):
            tree = SessionTree(
                i, "s",
                [("s", "x"), ("x", "y"), ("y", f"r{i}")],
                [f"r{i}"],
            )
            inputs.append(
                SessionInput(
                    tree=tree, schedule=PAPER_SCHEDULE,
                    reports={f"r{i}": ReceiverReport(losses[i], bytes_[i], levels[i])},
                )
            )
        return inputs

    t = 0.0
    for _ in range(2):
        t += 2.0
        ts.update(t, sessions([2, 2], [0.0, 0.0], [24_000, 24_000]))
    t += 2.0
    ts.update(t, sessions([3, 3], [0.4, 0.4], [24_000, 24_000]))
    assert ts.estimator.capacity(("x", "y")) < math.inf
    t += 2.0
    out = ts.update(t, sessions([2, 2], [0.0, 0.0], [24_000, 24_000]))
    # The 192 kb/s estimate splits ~96k each: nobody gets more than level 2.
    for _, level in out.items():
        assert level <= 2
