"""Property-based tests for the oracle allocation and fair sharing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.oracle import optimal_levels
from repro.baselines.session_plan import SessionPlan
from repro.core.session_topology import SessionTree
from repro.core.sharing import compute_fair_shares, find_shared_links
from repro.media.layers import PAPER_SCHEDULE
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network


# ----------------------------------------------------------------------
# Oracle: feasibility and maximality on random star-of-chains networks
# ----------------------------------------------------------------------
@st.composite
def random_star_network(draw):
    """src -> hub -> n receivers, random access bandwidths."""
    n = draw(st.integers(min_value=1, max_value=6))
    access = [
        draw(st.sampled_from([50e3, 100e3, 250e3, 500e3, 1e6, 2.5e6]))
        for _ in range(n)
    ]
    hub_bw = draw(st.sampled_from([500e3, 1e6, 4e6, 10e6]))
    net = Network(Scheduler())
    net.add_node("src")
    net.add_node("hub")
    net.add_link("src", "hub", bandwidth=hub_bw)
    plan = SessionPlan(0, "src", PAPER_SCHEDULE)
    for i, bw in enumerate(access):
        net.add_node(f"r{i}")
        net.add_link("hub", f"r{i}", bandwidth=bw)
        plan.add_receiver(f"R{i}", f"r{i}")
    net.build_routes()
    return net, plan


def _feasible(net, plan, levels):
    """Check multicast load fits every link (max-of-subtree semantics)."""
    hub_level = max(levels.values())
    if PAPER_SCHEDULE.cumulative(hub_level) > net.link("src", "hub").bandwidth + 1e-9:
        return False
    for rid, node in plan.receiver_nodes.items():
        lvl = levels[(0, rid)] if (0, rid) in levels else levels[rid]
        if PAPER_SCHEDULE.cumulative(lvl) > net.link("hub", node).bandwidth + 1e-9:
            return False
    return True


@given(random_star_network())
@settings(max_examples=40, deadline=None)
def test_oracle_allocation_is_feasible(net_plan):
    net, plan = net_plan
    levels = optimal_levels(net, [plan])
    hub_level = max(levels.values())
    assert PAPER_SCHEDULE.cumulative(hub_level) <= max(
        net.link("src", "hub").bandwidth, PAPER_SCHEDULE.cumulative(1)
    ) + 1e-9
    for (sid, rid), lvl in levels.items():
        node = plan.receiver_nodes[rid]
        access = net.link("hub", node).bandwidth
        if PAPER_SCHEDULE.cumulative(1) <= access:
            assert PAPER_SCHEDULE.cumulative(lvl) <= access + 1e-9


@given(random_star_network())
@settings(max_examples=40, deadline=None)
def test_oracle_allocation_is_maximal(net_plan):
    """No single receiver can be raised a layer without breaking a link."""
    net, plan = net_plan
    levels = optimal_levels(net, [plan])
    if not _feasible(net, plan, levels):
        return  # base layer itself infeasible: nothing to check
    for key in levels:
        if levels[key] >= PAPER_SCHEDULE.n_layers:
            continue
        bumped = dict(levels)
        bumped[key] += 1
        assert not _feasible(net, plan, bumped), (key, levels)


# ----------------------------------------------------------------------
# Fair sharing: conservation and positivity on random shared links
# ----------------------------------------------------------------------
@st.composite
def shared_link_sessions(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    cap = draw(st.sampled_from([200e3, 500e3, 1e6, 2e6, 8e6]))
    down = [
        draw(st.sampled_from([100e3, 250e3, 500e3, 1e6, math.inf]))
        for _ in range(n)
    ]
    trees = []
    caps = {("x", "y"): cap}
    for i in range(n):
        trees.append(
            SessionTree(
                i, f"s{i}",
                [(f"s{i}", "x"), ("x", "y"), ("y", f"r{i}")],
                [f"r{i}"],
            )
        )
        if down[i] != math.inf:
            caps[("y", f"r{i}")] = down[i]
    return trees, caps


@given(shared_link_sessions())
@settings(max_examples=40, deadline=None)
def test_fair_shares_conserve_capacity(ts):
    trees, caps = ts
    schedules = {t.session_id: PAPER_SCHEDULE for t in trees}
    fair = compute_fair_shares(trees, schedules, lambda e: caps.get(e, math.inf))
    shared = find_shared_links(trees)
    assert set(shared) == {("x", "y")}
    shares = [fair[(("x", "y"), t.session_id)] for t in trees]
    assert all(s > 0 for s in shares)
    total = sum(shares)
    assert total == pytest.approx(caps[("x", "y")], rel=1e-9)


@given(shared_link_sessions())
@settings(max_examples=40, deadline=None)
def test_fair_shares_monotone_in_downstream_capacity(ts):
    """A session with at least the downstream room of another never gets a
    smaller share."""
    trees, caps = ts
    schedules = {t.session_id: PAPER_SCHEDULE for t in trees}
    fair = compute_fair_shares(trees, schedules, lambda e: caps.get(e, math.inf))

    def down(i):
        return caps.get(("y", f"r{i}"), math.inf)

    for a in trees:
        for b in trees:
            if down(a.session_id) >= down(b.session_id):
                assert (
                    fair[(("x", "y"), a.session_id)]
                    >= fair[(("x", "y"), b.session_id)] - 1e-9
                )
