"""Tests for membership churn plans, receiver re-attachment and the
tree-churn backend sweep (``python -m repro churn``)."""

import json
import math

import pytest

from repro.experiments.churn import (
    build_churn_scenario,
    churn_receiver_ids,
    default_churn_plan,
    run_churn,
)
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan


# ----------------------------------------------------------------------
# membership_churn plan builder
# ----------------------------------------------------------------------
def test_membership_churn_is_deterministic_per_seed():
    ids = ["A", "B", "C", "D"]
    one = FaultPlan().membership_churn(ids, start=5.0, end=60.0, seed=7)
    two = FaultPlan().membership_churn(ids, start=5.0, end=60.0, seed=7)
    other = FaultPlan().membership_churn(ids, start=5.0, end=60.0, seed=8)
    assert list(one) == list(two)
    assert list(one) != list(other)


def test_membership_churn_events_are_well_formed():
    ids = ["A", "B", "C", "D"]
    plan = FaultPlan().membership_churn(
        ids, start=10.0, end=50.0, rate=0.5, off_time=(4.0, 12.0), seed=3
    )
    events = list(plan)
    assert events, "a 40 s window at rate 0.5 should produce churn"
    assert all(ev.kind in ("receiver_leave", "receiver_join") for ev in events)
    # Every rejoin pairs with an earlier leave of the same receiver at an
    # off-time inside the configured bounds.  (Waves can overlap: a receiver
    # may be picked to leave again while still departed — the injector is
    # idempotent about that — and a leave near the window end legitimately
    # has no rejoin at all.)
    leaves = {}
    n_joins = 0
    for ev in events:
        rid = ev.args[0]
        assert rid in ids
        if ev.kind == "receiver_leave":
            assert 10.0 <= ev.time <= 50.0
            leaves.setdefault(rid, []).append(ev.time)
        else:
            n_joins += 1
            assert ev.time < 50.0, "rejoins past the window are dropped"
            assert any(
                4.0 <= ev.time - t0 <= 12.0 for t0 in leaves.get(rid, ())
            ), "join without a matching leave"
    assert n_joins > 0


def test_membership_churn_round_trips_through_json():
    plan = FaultPlan().membership_churn(["A", "B", "C"], start=1.0, end=30.0, seed=5)
    plan.link_flap(10.0, "x", "y", down_for=2.0, times=1)
    replayed = FaultPlan.from_dicts(json.loads(json.dumps(plan.to_dicts())))
    assert list(replayed) == list(plan)


# ----------------------------------------------------------------------
# Receiver leave/rejoin through the injector
# ----------------------------------------------------------------------
def test_membership_fault_leave_and_rejoin_are_idempotent():
    sc = build_churn_scenario(seed=2, n_receivers=4)
    injector = FaultInjector(sc)
    handle = next(h for h in sc.receivers if h.receiver_id == "A0")

    sc.run(10.0)
    first_agent = handle.agent
    assert first_agent.active
    assert handle.receiver.level >= 1

    injector.receiver_leave("A0")
    injector.receiver_leave("A0")  # no-op, not an error
    sc.run(20.0)
    assert not first_agent.active
    assert handle.receiver.level == 0

    injector.receiver_join("A0")
    injector.receiver_join("A0")  # no-op, not an error
    rejoined = handle.agent
    assert rejoined is not first_agent  # fresh agent, fresh RNG stream
    assert rejoined.active
    sc.run(40.0)
    assert handle.receiver.level >= 1
    # The replacement agent keeps reporting: the controller still reaches it.
    assert any(t > 20.0 for t in rejoined.suggestion_times)


def test_reattach_unknown_receiver_raises():
    sc = build_churn_scenario(seed=2, n_receivers=2)
    injector = FaultInjector(sc)
    with pytest.raises(KeyError):
        injector.receiver_leave("nope")


# ----------------------------------------------------------------------
# The backend sweep
# ----------------------------------------------------------------------
def test_churn_receiver_ids_split_across_aggregations():
    assert churn_receiver_ids(5) == ["A0", "A1", "A2", "B0", "B1"]
    assert churn_receiver_ids(1) == ["A0"]


def test_default_plan_covers_both_aggregation_links():
    plan = default_churn_plan(churn_receiver_ids(6), duration=120.0, seed=1)
    downs = [tuple(ev.args) for ev in plan if ev.kind == "link_down"]
    assert ("core", "agg_a") in downs
    assert ("core", "agg_b") in downs
    assert any(ev.kind == "receiver_leave" for ev in plan)


def test_repair_locality_gate_is_not_vacuous():
    """A patch larger than SPT's rebuild of the same (time, group) fails the
    gate, and so does a run with nothing to match."""
    from repro.experiments.churn import _repair_locality

    def row(time, group, kind, removed, added):
        return {"time": time, "group": group, "kind": kind,
                "edges_removed": removed, "edges_added": added}

    spt = [row(40.0, 1, "rebuild", 1, 1), row(40.0, 2, "rebuild", 1, 2),
           row(60.0, 1, "rebuild", 1, 0)]
    tight = [row(40.0, 1, "local", 1, 1), row(40.0, 2, "local", 1, 2),
             row(60.0, 1, "rebuild", 1, 0)]
    assert _repair_locality(tight, spt) == {
        "matched_repairs": 2, "protected_local_edges": 5,
        "spt_rebuild_edges": 5, "ok": True,
    }
    sloppy = [row(40.0, 1, "local", 2, 2), row(40.0, 2, "local", 1, 1)]
    assert not _repair_locality(sloppy, spt)["ok"]  # one oversized patch
    assert not _repair_locality([row(41.0, 1, "local", 1, 1)], spt)["ok"]
    assert not _repair_locality([], spt)["ok"]


def test_run_churn_smoke_all_backends():
    """One full seeded sweep: the ISSUE's churn acceptance gate."""
    result = run_churn(seed=1)
    assert result["backends"] == ["spt", "protected"]
    assert result["ok"], "canonical churn sweep must pass its own gate"

    spt = result["per_backend"]["spt"]
    prot = result["per_backend"]["protected"]
    # Identical (seed, plan) per backend: same fault log, same churn input.
    assert spt["fault_log"] == prot["fault_log"]
    assert result["plan"] == FaultPlan.from_dicts(result["plan"]).to_dicts()

    # SPT never patches locally; protected must have, and no patch may
    # disturb more of the tree than SPT's rebuild of the same group at the
    # same instant.
    assert spt["local_repairs"] == 0
    assert prot["local_repairs"] >= 1
    assert prot["rebuild_repairs"] < spt["rebuild_repairs"]
    locality = result["repair_locality"]
    assert locality["ok"]
    assert locality["matched_repairs"] == prot["local_repairs"]
    assert locality["protected_local_edges"] <= locality["spt_rebuild_edges"]

    for backend in result["backends"]:
        b = result["per_backend"][backend]
        # The incremental path skipped the sibling session's groups.
        assert b["groups_skipped"] > 0
        assert b["repair_epoch"] > 0
        assert b["recovered_all"]
        # The access-link cut orphans one receiver for its 6 s outage.
        assert b["orphan_member_seconds"] > 0
        # Its post-restore loss report spans the window and is fenced.
        assert b["reports_fenced"] >= 1
        # Nobody lies under pure churn; the guard must stay silent.
        assert b["guard"]["precision"] == 1.0 and b["guard"]["recall"] == 1.0
        assert math.isfinite(b["convergence_s"])


def test_run_churn_seed_6_layers_agree_after_the_outage():
    """Seed 6 rejoins A0 while ``core—agg_b`` is down, so the layer groups
    A0 joins are rebuilt with agg_b reached through agg_a.  They must
    revert with their sibling layers when the link returns; otherwise
    agg_b has two parents in the session tree and the controller tick
    raises at t = 85.5 s."""
    assert run_churn(seed=6)["ok"]
