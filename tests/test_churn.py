"""Tests for membership churn plans, receiver re-attachment and the
tree-churn experiment (``python -m repro churn``)."""

import json
import math

import pytest

from repro.experiments.churn import (
    build_churn_scenario,
    churn_receiver_ids,
    default_churn_plan,
    run_churn,
)
from repro.experiments.membership import churn_events
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan
from repro.workloads.builders import diurnal_leave_times


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


def test_membership_churn_golden():
    """Churn and diurnal draws as numpy's generator made them: captured
    while these builders still drew from ``numpy.random.default_rng``, so
    ``Pcg64``'s ``exponential`` and weighted sampling without replacement
    (a burst of 3 here takes a second round) must reproduce them."""
    assert churn_events(["A", "B", "C", "D"], 5.0, 40.0, rate=0.2, seed=11) == [
        ("leave", 6.147962, "A"), ("join", 14.959949, "A"), ("leave", 6.376947, "A"),
        ("join", 17.802636, "A"), ("leave", 6.733982, "A"), ("join", 18.320609, "A"),
        ("leave", 11.547683, "A"), ("join", 19.638803, "A"), ("leave", 15.622504, "A"),
        ("join", 20.726248, "A"), ("leave", 22.97499, "B"), ("join", 31.074049, "B"),
        ("leave", 37.710667, "B")]
    assert churn_events(["A", "B", "C", "D", "E"], 0.0, 30.0, rate=0.2, burst=3, seed=7) == [
        ("leave", 3.537646, "D"), ("join", 9.938977, "D"), ("leave", 3.537646, "C"),
        ("join", 14.526074, "C"), ("leave", 3.537646, "A"), ("join", 7.579769, "A"),
        ("leave", 17.583725, "C"), ("join", 23.81113, "C"), ("leave", 17.583725, "B"),
        ("join", 23.622682, "B"), ("leave", 17.583725, "A"), ("join", 25.144336, "A"),
        ("leave", 27.004975, "B"), ("leave", 27.004975, "E"), ("leave", 27.004975, "C"),
        ("leave", 28.74684, "B"), ("leave", 28.74684, "A"), ("leave", 28.74684, "D")]
    assert diurnal_leave_times(0.0, 60.0, period=30.0, peak_rate=0.5, trough_rate=0.05,
                               seed=3) == [
        4.575192, 6.577115, 7.479636, 8.012699, 10.86007, 11.438646, 13.23109, 14.538272,
        15.717882, 15.800583, 18.629321, 40.350798, 45.110256, 46.144619, 52.402815,
        55.334895]


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
# The churn experiment
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


def test_run_churn_smoke_all_backends():
    """One full seeded run: the churn acceptance gate."""
    result = run_churn(seed=1)
    assert result["ok"], "canonical churn run must pass its own gate"
    assert result["plan"] == FaultPlan.from_dicts(result["plan"]).to_dicts()
    # Every receiver the plan scores got a suggestion within the bound.
    scored = [r for r in result["receivers"].values() if r["scored"]]
    assert scored and all(r["recovered"] for r in scored)
    assert result["convergence_s"] <= result["recover_within"]
    # Every repair is a rebuild; the incremental path skipped the sibling
    # session's groups.
    assert result["rebuild_repairs"] > 0 and result["tree_edges_churned"] > 0
    assert result["groups_skipped"] > 0
    assert result["repair_epoch"] > 0
    # The access-link cut orphans one receiver for its 6 s outage.
    assert result["orphan_member_seconds"] > 0
    # Its post-restore loss report spans the window and is fenced.
    assert result["reports_fenced"] >= 1
    # Nobody lies under pure churn; the guard must stay silent.
    assert result["guard"]["precision"] == 1.0 and result["guard"]["recall"] == 1.0
    assert math.isfinite(result["convergence_s"])


def test_run_churn_seed_6_layers_agree_after_the_outage():
    """Seed 6 rejoins A0 while ``core—agg_b`` is down, so the layer groups
    A0 joins are rebuilt with agg_b reached through agg_a.  They must
    revert with their sibling layers when the link returns; otherwise
    agg_b has two parents in the session tree and the controller tick
    raises at t = 85.5 s."""
    assert run_churn(seed=6)["ok"]


def test_a_join_of_a_present_receiver_is_no_recovery_reference():
    """A0 leaves twice and joins twice: the second leave and the second
    join find it already gone or back and do nothing.  Recovery is scored
    from the rejoin that fired (16 s), so the link clear at 25 s is A0's
    reference, and dropping the no-op join at 30 s changes no score."""
    def plan(*noop_joins):
        p = (FaultPlan().add(10.0, "receiver_leave", "A0").add(12.0, "receiver_leave", "A0")
             .add(16.0, "receiver_join", "A0")
             .link_flap(20.0, "core", "agg_b", down_for=5.0, times=1))
        for t in noop_joins:
            p.add(t, "receiver_join", "A0")
        return p

    with_noop = run_churn(seed=1, duration=60.0, n_receivers=4, plan=plan(30.0))
    without = run_churn(seed=1, duration=60.0, n_receivers=4, plan=plan())
    assert with_noop["receivers"] == without["receivers"]
    a0 = with_noop["receivers"]["A0"]
    assert a0["scored"] and a0["recovered"]
    assert with_noop["ok"]
