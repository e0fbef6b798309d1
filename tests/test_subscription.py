"""Unit tests for stages 5/6: demand computation and supply allocation."""

import math

import numpy as np

from repro.core.config import TopoSenseConfig
from repro.core.decision_table import Action
from repro.core.session_topology import SessionTree
from repro.core.state import ControllerState
from repro.core.subscription import allocate_supply, compute_demands
from repro.core.types import ReceiverReport
from repro.media.layers import PAPER_SCHEDULE

S = PAPER_SCHEDULE
# Deterministic timer and probe gate so individual actions are predictable.
CFG = TopoSenseConfig(backoff_min=10.0, backoff_max=10.0, add_probability=1.0)
RNG = np.random.default_rng(0)


def chain_tree():
    """root -> mid -> leaf."""
    return SessionTree("s", "root", [("root", "mid"), ("mid", "leaf")], ["leaf"])


def fork_tree():
    return SessionTree(
        "s", "root",
        [("root", "mid"), ("mid", "a"), ("mid", "b")],
        ["a", "b"],
    )


def run_demand(tree, reports, loss, congestion, node_bytes, state=None, now=100.0):
    state = state or ControllerState()
    return (
        compute_demands(
            tree, S, reports, loss, congestion, node_bytes, state, CFG, now, RNG
        ),
        state,
    )


def mk_reports(**levels):
    return {
        node: ReceiverReport(loss_rate=0.0, bytes=0.0, level=lvl)
        for node, lvl in levels.items()
    }


class TestLeafDemand:
    def test_no_congestion_adds_layer(self):
        t = chain_tree()
        state = ControllerState()
        ns = state.node("s", "leaf")
        ns.push_level(2); ns.push_level(2)  # level held two full intervals
        res, _ = run_demand(
            t, mk_reports(leaf=2), {"leaf": 0.0, "mid": 0.0, "root": 0.0},
            {"leaf": False, "mid": False, "root": False}, {"leaf": 0.0},
            state=state,
        )
        assert res.action["leaf"] is Action.ADD_LAYER
        assert res.demand["leaf"] == S.cumulative(3)

    def test_unconfirmed_level_not_escalated(self):
        """A level just reached (not held a full interval) is not probed past:
        its loss report still mostly reflects the previous level."""
        t = chain_tree()
        state = ControllerState()
        ns = state.node("s", "leaf")
        ns.push_level(1); ns.push_level(2)  # level 2 only held one interval
        res, _ = run_demand(
            t, mk_reports(leaf=2), {"leaf": 0.0}, {n: False for n in t.nodes},
            {"leaf": 0.0}, state=state,
        )
        assert res.action["leaf"] is Action.ADD_LAYER
        assert res.demand["leaf"] == S.cumulative(2)  # hold, don't escalate

    def test_add_clamped_at_top_layer(self):
        t = chain_tree()
        res, _ = run_demand(
            t, mk_reports(leaf=6), {"leaf": 0.0}, {n: False for n in t.nodes},
            {"leaf": 0.0},
        )
        assert res.demand["leaf"] == S.cumulative(6)

    def test_backoff_blocks_add(self):
        t = chain_tree()
        state = ControllerState()
        state.set_backoff("s", "mid", 3, expiry=1000.0)  # ancestor holds timer
        res, _ = run_demand(
            t, mk_reports(leaf=2), {"leaf": 0.0}, {n: False for n in t.nodes},
            {"leaf": 0.0}, state=state,
        )
        assert res.demand["leaf"] == S.cumulative(2)  # stuck below backed-off layer

    def test_newly_congested_high_loss_drops_and_backs_off(self):
        t = chain_tree()
        state = ControllerState()
        ns = state.node("s", "leaf")
        ns.push_bytes(1_000.0)  # prev << current -> LESSER
        res, state = run_demand(
            t, mk_reports(leaf=4), {"leaf": 0.30, "mid": 0.30, "root": 0.30},
            {"leaf": True, "mid": False, "root": False},
            {"leaf": 50_000.0}, state=state,
        )
        assert res.action["leaf"] is Action.DROP_IF_HIGH_LOSS
        assert res.demand["leaf"] == S.cumulative(3)
        assert state.is_backed_off("s", ["leaf"], 4, now=105.0)

    def test_newly_congested_low_loss_maintains(self):
        t = chain_tree()
        state = ControllerState()
        state.node("s", "leaf").push_bytes(1_000.0)
        res, state = run_demand(
            t, mk_reports(leaf=4), {"leaf": 0.08},  # above p_threshold, below high
            {"leaf": True, "mid": False, "root": False},
            {"leaf": 50_000.0}, state=state,
        )
        assert res.demand["leaf"] == S.cumulative(4)
        assert not state.is_backed_off("s", ["leaf"], 4, now=105.0)

    def test_sustained_congestion_halves_old_supply(self):
        t = chain_tree()
        state = ControllerState()
        ns = state.node("s", "leaf")
        ns.push_congestion(False)
        ns.push_congestion(True)  # history (T0,T1) = (0,1); current True -> 3
        ns.push_supply(S.cumulative(4))  # supply_old after second push
        ns.push_supply(S.cumulative(4))
        res, state = run_demand(
            t, mk_reports(leaf=4), {"leaf": 0.2},
            {"leaf": True, "mid": False, "root": False}, {"leaf": 0.0},
            state=state,
        )
        # hist=3, EQUAL (no prev bytes) -> REDUCE_HALF_OLD.
        assert res.action["leaf"] is Action.REDUCE_HALF_OLD
        assert res.demand["leaf"] == S.cumulative(4) / 2
        # Dropped from level 4 to level 3 (240k fits 224k): back off layer 4.
        assert state.is_backed_off("s", ["leaf"], 4, now=105.0)

    def test_reduce_to_supply_old(self):
        t = chain_tree()
        state = ControllerState()
        ns = state.node("s", "leaf")
        ns.push_congestion(False)
        ns.push_congestion(True)
        ns.push_supply(S.cumulative(3))
        ns.push_supply(S.cumulative(4))
        ns.push_bytes(1_000.0)  # LESSER
        res, _ = run_demand(
            t, mk_reports(leaf=4), {"leaf": 0.2},
            {"leaf": True, "mid": False, "root": False}, {"leaf": 50_000.0},
            state=state,
        )
        assert res.action["leaf"] is Action.REDUCE_TO_SUPPLY_OLD
        assert res.demand["leaf"] == S.cumulative(3)

    def test_greater_history3_needs_very_high_loss(self):
        t = chain_tree()
        state = ControllerState()
        ns = state.node("s", "leaf")
        ns.push_congestion(False)
        ns.push_congestion(True)
        ns.push_supply(S.cumulative(4))
        ns.push_supply(S.cumulative(4))
        ns.push_bytes(100_000.0)  # prev >> current -> GREATER
        res, _ = run_demand(
            t, mk_reports(leaf=4), {"leaf": 0.10},  # high-ish but not very high
            {"leaf": True, "mid": False, "root": False}, {"leaf": 10_000.0},
            state=state,
        )
        assert res.action["leaf"] is Action.REDUCE_HALF_IF_VERY_HIGH
        assert res.demand["leaf"] == S.cumulative(4)  # not reduced

    def test_greater_history3_very_high_loss_reduces(self):
        t = chain_tree()
        state = ControllerState()
        ns = state.node("s", "leaf")
        ns.push_congestion(False)
        ns.push_congestion(True)
        ns.push_supply(S.cumulative(4))
        ns.push_supply(S.cumulative(4))
        ns.push_bytes(100_000.0)
        res, _ = run_demand(
            t, mk_reports(leaf=4), {"leaf": 0.5},
            {"leaf": True, "mid": False, "root": False}, {"leaf": 10_000.0},
            state=state,
        )
        assert res.demand["leaf"] == S.cumulative(4) / 2

    def test_demand_floors_at_min_level(self):
        t = chain_tree()
        state = ControllerState()
        ns = state.node("s", "leaf")
        ns.push_congestion(False)
        ns.push_congestion(True)
        ns.push_supply(S.cumulative(1))
        ns.push_supply(S.cumulative(1))
        res, _ = run_demand(
            t, mk_reports(leaf=1), {"leaf": 0.9},
            {"leaf": True, "mid": False, "root": False}, {"leaf": 0.0},
            state=state,
        )
        assert res.demand["leaf"] >= S.cumulative(1)

    def test_missing_report_defaults_to_min_level(self):
        t = chain_tree()
        state = ControllerState()
        ns = state.node("s", "leaf")
        ns.push_level(1); ns.push_level(1)
        res, _ = run_demand(
            t, {}, {"leaf": None}, {n: False for n in t.nodes}, {}, state=state,
        )
        # No report: level assumed min_level=1; no congestion -> tries level 2.
        assert res.demand["leaf"] == S.cumulative(2)

    def test_leaf_defers_when_parent_congested(self):
        t = chain_tree()
        congestion = {"root": True, "mid": True, "leaf": True}
        res, state = run_demand(
            t, mk_reports(leaf=4), {n: 0.5 for n in t.nodes}, congestion,
            {"leaf": 10_000.0},
        )
        # The leaf maintains; the subtree root (here: root) does the reducing.
        assert res.action["leaf"] is Action.MAINTAIN
        assert res.demand["leaf"] == S.cumulative(4)
        assert not state.is_backed_off("s", ["leaf"], 4, now=200.0)


class TestInternalDemand:
    def test_aggregate_is_max_of_children(self):
        t = fork_tree()
        state = ControllerState()
        for node, lvl in (("a", 2), ("b", 4)):
            ns = state.node("s", node)
            ns.push_level(lvl); ns.push_level(lvl)
        res, _ = run_demand(
            t, mk_reports(a=2, b=4),
            {n: 0.0 for n in t.nodes}, {n: False for n in t.nodes},
            {"a": 0.0, "b": 0.0}, state=state,
        )
        # Children try 3 and 5; mid accepts max.
        assert res.demand["mid"] == S.cumulative(5)
        assert res.demand["root"] == S.cumulative(5)

        # A depth-6 binary tree: one demand for each of its 127 nodes.
        edges = [(n, 2 * n + c) for n in range(1, 64) for c in (0, 1)]
        leaves = range(64, 128)
        big = SessionTree("s", 1, edges, leaves)
        reports = {
            leaf: ReceiverReport(loss_rate=0.0, bytes=120_000.0, level=3)
            for leaf in leaves
        }
        res, _ = run_demand(
            big, reports, {n: 0.0 for n in big.nodes}, {n: False for n in big.nodes},
            {n: 120_000.0 for n in big.nodes},
        )
        assert set(res.demand) == set(big.nodes) and len(big.nodes) == 127

    def test_parent_congested_child_defers(self):
        t = fork_tree()
        state = ControllerState()
        # mid is congested (subtree root is "root"? no: root congested too).
        # Make root congested and mid congested: mid defers to root.
        for node in ("mid",):
            ns = state.node("s", node)
            ns.push_congestion(True)
            ns.push_congestion(True)
            ns.push_supply(S.cumulative(4))
            ns.push_supply(S.cumulative(4))
        congestion = {"root": True, "mid": True, "a": True, "b": True}
        res, _ = run_demand(
            t, mk_reports(a=4, b=4),
            {n: 0.2 for n in t.nodes}, congestion,
            {"a": 0.0, "b": 0.0}, state=state,
        )
        # mid's parent (root) is congested -> mid passes through children max.
        assert res.action["mid"] is Action.ACCEPT_CHILDREN

    def test_subtree_root_reduces(self):
        t = fork_tree()
        state = ControllerState()
        ns = state.node("s", "mid")
        ns.push_congestion(False)
        ns.push_congestion(True)
        ns.push_supply(S.cumulative(4))
        ns.push_supply(S.cumulative(4))
        congestion = {"root": False, "mid": True, "a": True, "b": True}
        res, _ = run_demand(
            t, mk_reports(a=4, b=4),
            {n: 0.2 for n in t.nodes}, congestion,
            {"a": 100_000.0, "b": 100_000.0}, state=state,
        )
        # mid: hist=3 -> MAINTAIN per internal table {2,3,6}.
        assert res.action["mid"] is Action.MAINTAIN
        assert res.demand["mid"] == S.cumulative(4)

    def test_internal_first_congestion_reduces_half(self):
        t = fork_tree()
        state = ControllerState()
        ns = state.node("s", "mid")
        ns.push_supply(S.cumulative(4))
        ns.push_supply(S.cumulative(4))
        congestion = {"root": False, "mid": True, "a": True, "b": True}
        res, state = run_demand(
            t, mk_reports(a=4, b=4),
            {n: 0.2 for n in t.nodes}, congestion,
            {"a": 100_000.0, "b": 100_000.0}, state=state,
        )
        # mid: hist=1, EQUAL -> REDUCE_HALF_OLD.
        assert res.action["mid"] is Action.REDUCE_HALF_OLD
        assert res.demand["mid"] == S.cumulative(4) / 2
        assert state.is_backed_off("s", ["mid"], 4, now=105.0)


class TestAllocateSupply:
    def caps(self, mapping):
        return lambda e: mapping.get(e, math.inf)

    def test_supply_follows_demand_when_unconstrained(self):
        t = chain_tree()
        demand = {"root": S.cumulative(4), "mid": S.cumulative(4), "leaf": S.cumulative(4)}
        state = ControllerState()
        levels = allocate_supply(t, S, demand, self.caps({}), {}, state, CFG)
        assert levels == {"leaf": 4}

    def test_capacity_clamps_supply(self):
        t = chain_tree()
        demand = {n: S.cumulative(6) for n in t.nodes}
        levels = allocate_supply(
            t, S, demand, self.caps({("mid", "leaf"): 100_000.0}), {},
            ControllerState(), CFG,
        )
        assert levels == {"leaf": 2}  # 96k fits in 100k

    def test_fair_share_clamps_supply(self):
        t = chain_tree()
        demand = {n: S.cumulative(6) for n in t.nodes}
        fair = {((
            "root", "mid"), "s"): 480_000.0}
        levels = allocate_supply(t, S, demand, self.caps({}), fair, ControllerState(), CFG)
        assert levels == {"leaf": 4}

    def test_parent_supply_bounds_child(self):
        t = fork_tree()
        demand = {
            "root": S.cumulative(2), "mid": S.cumulative(2),
            "a": S.cumulative(2), "b": S.cumulative(2),
        }
        # Even though the links are fat, root demand caps everything.
        levels = allocate_supply(t, S, demand, self.caps({}), {}, ControllerState(), CFG)
        assert levels == {"a": 2, "b": 2}

    def test_min_level_floor(self):
        t = chain_tree()
        demand = {n: 0.0 for n in t.nodes}
        levels = allocate_supply(
            t, S, demand, self.caps({("mid", "leaf"): 1_000.0}), {},
            ControllerState(), CFG,
        )
        assert levels == {"leaf": 1}

    def test_supply_recorded_in_state(self):
        t = chain_tree()
        demand = {n: S.cumulative(3) for n in t.nodes}
        state = ControllerState()
        allocate_supply(t, S, demand, self.caps({}), {}, state, CFG)
        assert state.node("s", "leaf").supply_recent == S.cumulative(3)

    def test_heterogeneous_leaves(self):
        t = fork_tree()
        demand = {
            "root": S.cumulative(5), "mid": S.cumulative(5),
            "a": S.cumulative(2), "b": S.cumulative(5),
        }
        levels = allocate_supply(
            t, S, demand, self.caps({("mid", "a"): 1e6, ("mid", "b"): 300_000.0}),
            {}, ControllerState(), CFG,
        )
        assert levels["a"] == 2  # own demand limits
        assert levels["b"] == 3  # link capacity limits (224k fits 300k)
