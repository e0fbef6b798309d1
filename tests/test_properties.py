"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bottleneck import compute_bottlenecks, compute_handleable
from repro.core.capacity import LinkCapacityEstimator, LinkObservation
from repro.core.config import TopoSenseConfig
from repro.core.congestion import compute_congestion, compute_loss_rates, compute_subtree_bytes
from repro.core.decision_table import BwEquality, classify_bandwidth
from repro.core.session_topology import SessionTree
from repro.core.state import ControllerState
from repro.core.subscription import allocate_supply, compute_demands
from repro.core.types import ReceiverReport
from repro.media.layers import LayerSchedule, PAPER_SCHEDULE
from repro.simnet.engine import Scheduler
from repro.simnet.tracing import StepTrace


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def random_trees(draw, max_nodes=24):
    """A random rooted tree: node i's parent is drawn from 0..i-1."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = []
    for child in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        edges.append((parent, child))
    tree = SessionTree("s", 0, edges, [])
    return SessionTree("s", 0, edges, leaves_of(tree))


@st.composite
def tree_with_losses(draw):
    tree = draw(random_trees())
    losses = {
        leaf: draw(st.floats(min_value=0.0, max_value=1.0))
        for leaf in leaves_of(tree)
    }
    return tree, losses


def leaves_of(tree):
    return [n for n in tree.nodes if tree.is_leaf(n)]


def subtree_leaves(tree, node):
    """Leaves of the subtree rooted at ``node`` (the reference walk)."""
    out, stack = [], [node]
    while stack:
        u = stack.pop()
        kids = tree.children.get(u)
        if kids:
            stack.extend(kids)
        else:
            out.append(u)
    return out


# ----------------------------------------------------------------------
# SessionTree invariants
# ----------------------------------------------------------------------
@given(random_trees())
@settings(max_examples=50, deadline=None)
def test_traversals_cover_all_nodes_once(tree):
    td = tree.topdown()
    bu = tree.bottomup()
    assert sorted(map(str, td)) == sorted(map(str, bu))
    assert len(set(td)) == len(td)
    pos = {n: i for i, n in enumerate(td)}
    for child, parent in tree.parent.items():
        assert pos[parent] < pos[child]


@given(random_trees())
@settings(max_examples=50, deadline=None)
def test_path_from_root_is_consistent(tree):
    for leaf in leaves_of(tree):
        path = tree.path_from_root(leaf)
        assert path[0] == tree.root
        assert path[-1] == leaf
        for u, v in zip(path, path[1:]):
            assert tree.parent[v] == u


# ----------------------------------------------------------------------
# Stage invariants
# ----------------------------------------------------------------------
@given(tree_with_losses())
@settings(max_examples=50, deadline=None)
def test_internal_loss_never_exceeds_children(tw):
    tree, losses = tw
    loss = compute_loss_rates(tree, losses)
    for node in tree.nodes:
        kids = tree.children.get(node)
        if kids:
            known = [loss[c] for c in kids if loss[c] is not None]
            if known:
                assert loss[node] == min(known)


@given(tree_with_losses())
@settings(max_examples=50, deadline=None)
def test_congestion_propagates_downward_closure(tw):
    """If a node is congested, its entire subtree is congested."""
    tree, losses = tw
    cfg = TopoSenseConfig()
    cong = compute_congestion(tree, compute_loss_rates(tree, losses), cfg)
    for node in tree.nodes:
        parent = tree.parent.get(node)
        if parent is not None and cong[parent]:
            assert cong[node]


@given(tree_with_losses())
@settings(max_examples=50, deadline=None)
def test_subtree_bytes_is_monotone_up_the_tree(tw):
    tree, losses = tw
    leaf_bytes = {leaf: v * 1e6 for leaf, v in losses.items()}
    out = compute_subtree_bytes(tree, leaf_bytes)
    for node in tree.nodes:
        parent = tree.parent.get(node)
        if parent is not None:
            assert out[parent] >= out[node] or not set(
                subtree_leaves(tree, node)
            ) <= set(subtree_leaves(tree, parent))


@given(random_trees(), st.dictionaries(st.integers(0, 23), st.floats(1e3, 1e8)))
@settings(max_examples=50, deadline=None)
def test_bottleneck_monotone_down_any_path(tree, caps_raw):
    caps = {}
    for node in tree.nodes:
        if node in tree.parent and node in caps_raw:
            caps[(tree.parent[node], node)] = caps_raw[node]
    b = compute_bottlenecks(tree, lambda e: caps.get(e, math.inf))
    for node in tree.nodes:
        parent = tree.parent.get(node)
        if parent is not None:
            assert b[node] <= b[parent]
    h = compute_handleable(tree, b)
    for node in tree.nodes:
        leaves = subtree_leaves(tree, node)
        assert h[node] == max(b[l] for l in leaves)


# ----------------------------------------------------------------------
# Decision table totality / classification
# ----------------------------------------------------------------------
@given(st.floats(0, 1e9), st.floats(0, 1e9), st.floats(0, 0.5))
@settings(max_examples=200, deadline=None)
def test_classify_bandwidth_total_and_antisymmetric(a, b, tol):
    r1 = classify_bandwidth(a, b, tol)
    r2 = classify_bandwidth(b, a, tol)
    assert r1 in BwEquality
    if r1 is BwEquality.LESSER:
        assert r2 is BwEquality.GREATER
    elif r1 is BwEquality.GREATER:
        assert r2 is BwEquality.LESSER
    else:
        assert r2 is BwEquality.EQUAL


# ----------------------------------------------------------------------
# Demand/supply invariants over random controller inputs
# ----------------------------------------------------------------------
@st.composite
def demand_inputs(draw):
    tree = draw(random_trees(max_nodes=16))
    reports = {}
    losses = {}
    for leaf in leaves_of(tree):
        level = draw(st.integers(min_value=1, max_value=6))
        loss = draw(st.floats(min_value=0.0, max_value=1.0))
        reports[leaf] = ReceiverReport(
            loss_rate=loss,
            bytes=draw(st.floats(min_value=0.0, max_value=1e6)),
            level=level,
        )
        losses[leaf] = loss
    return tree, reports, losses


@given(demand_inputs())
@settings(max_examples=50, deadline=None)
def test_demand_and_supply_invariants(inp):
    tree, reports, leaf_losses = inp
    cfg = TopoSenseConfig()
    state = ControllerState()
    rng = np.random.default_rng(0)
    loss = compute_loss_rates(tree, leaf_losses)
    congestion = compute_congestion(tree, loss, cfg)
    node_bytes = compute_subtree_bytes(
        tree, {l: r.bytes for l, r in reports.items()}
    )
    res = compute_demands(
        tree, PAPER_SCHEDULE, reports, loss, congestion, node_bytes,
        state, cfg, 100.0, rng,
    )
    base = PAPER_SCHEDULE.cumulative(cfg.min_level)
    top = PAPER_SCHEDULE.cumulative(6)
    for node in tree.nodes:
        # Demand is always within [base layer, whole session].
        assert base <= res.demand[node] <= top + 1e-9
        # Internal demand never below any child's demand... it is the max
        # of children possibly reduced; but never *above* the max child.
        kids = tree.children.get(node)
        if kids:
            assert res.demand[node] <= max(res.demand[c] for c in kids) + 1e-9

    levels = allocate_supply(
        tree, PAPER_SCHEDULE, res.demand, lambda e: math.inf, {}, state, cfg
    )
    for leaf, level in levels.items():
        assert cfg.min_level <= level <= 6
        # Supply never exceeds demand at the leaf.
        assert PAPER_SCHEDULE.cumulative(level) <= res.demand[leaf] + 1e-9 or level == cfg.min_level


# ----------------------------------------------------------------------
# Capacity estimator invariants
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.floats(0, 1), st.floats(0, 1e6)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_capacity_estimator_never_negative_or_nan(observations):
    cfg = TopoSenseConfig()
    est = LinkCapacityEstimator(cfg)
    link = ("u", "v")
    for loss, bytes_ in observations:
        est.update({link: [LinkObservation(1, loss, bytes_)]}, interval=2.0)
        c = est.capacity(link)
        assert c > 0
        assert not math.isnan(c)


# ----------------------------------------------------------------------
# StepTrace invariants
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.floats(0.01, 10.0), st.integers(0, 6)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_steptrace_segments_tile_window(increments):
    tr = StepTrace(0.0, 0)
    t = 0.0
    for dt, v in increments:
        t += dt
        tr.record(t, v)
    end = t + 1.0
    segs = list(tr.segments(0.0, end))
    assert segs[0][0] == 0.0
    assert segs[-1][1] == pytest.approx(end)
    for (a0, a1, _), (b0, b1, _) in zip(segs, segs[1:]):
        assert a1 == pytest.approx(b0)
    total = sum(s1 - s0 for s0, s1, _ in segs)
    assert total == pytest.approx(end)
    # value_at agrees with the covering segment.
    for s0, s1, v in segs:
        mid = (s0 + s1) / 2
        assert tr.value_at(mid) == v


@given(
    st.lists(
        st.tuples(st.floats(0.01, 5.0), st.integers(0, 6)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_steptrace_time_weighted_mean_bounded(increments):
    tr = StepTrace(0.0, 3)
    t = 0.0
    for dt, v in increments:
        t += dt
        tr.record(t, v)
    m = tr.time_weighted_mean(0.0, t + 1.0)
    values = set(tr.values)
    assert min(values) - 1e-9 <= m <= max(values) + 1e-9


# ----------------------------------------------------------------------
# Scheduler determinism / ordering under random loads
# ----------------------------------------------------------------------
@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_scheduler_processes_in_nondecreasing_time(times):
    sched = Scheduler()
    seen = []
    for t in times:
        sched.at(t, lambda t=t: seen.append(sched.now))
    sched.run(until=101.0)
    assert seen == sorted(seen)
    assert len(seen) == len(times)


# ----------------------------------------------------------------------
# LayerSchedule invariants
# ----------------------------------------------------------------------
@given(
    st.integers(1, 10),
    st.floats(1e3, 1e6),
    st.floats(1.1, 3.0),
    st.floats(0, 1e8),
)
@settings(max_examples=100, deadline=None)
def test_layer_schedule_max_level_consistent(n, base, growth, bw):
    s = LayerSchedule(n_layers=n, base_rate=base, growth=growth)
    k = s.max_level_for(bw)
    assert 0 <= k <= n
    if k > 0:
        assert s.cumulative(k) <= bw
    if k < n:
        assert s.cumulative(k + 1) > bw
