"""Stage 5/6 — computing demand and allocating supply (paper §III, Table I).

**Demand** is computed bottom-up, in bits/s.  Each leaf starts from its
current subscription's cumulative rate and applies the Table I action for its
congestion history and bandwidth trend.  Internal nodes aggregate as the
*max* of their children (a multicast link carries the union of the layers its
subtree wants, and layers are cumulative) and then apply their own row of the
table — unless their parent is congested, in which case they pass the
aggregate through untouched: corrective action belongs to the *root* of the
congested subtree ("In general, in case of congestion in a sub-tree, action
is taken by the root of that sub-tree").

Reductions that drop layers arm a **back-off timer** for the highest dropped
layer at the acting node, drawn uniformly from the configured range; while it
runs, no receiver in that subtree re-adds the layer.  This is TopoSense's
receiver-coordination mechanism.

**Supply** is a single top-down pass: each node receives
``min(parent supply, own demand, estimated link capacity, fair share)`` and a
leaf's subscription level is the highest level whose cumulative rate fits its
supply (never below ``min_level`` — the paper assumes the base layer is
always received).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..media.layers import LayerSchedule
from ..simnet.rng import Pcg64
from .config import TopoSenseConfig
from .decision_table import (
    Action,
    BwEquality,
    classify_bandwidth,
    internal_action,
    leaf_action,
)
from .session_topology import SessionTree
from .state import ControllerState
from .types import ReceiverReport

__all__ = ["compute_demands", "allocate_supply", "DemandResult"]

Edge = Tuple[Any, Any]


class DemandResult:
    """Per-node outputs of the demand pass (kept for tests/diagnostics)."""

    def __init__(self) -> None:
        self.demand: Dict[Any, float] = {}
        self.action: Dict[Any, Action] = {}
        self.history: Dict[Any, int] = {}
        self.equality: Dict[Any, BwEquality] = {}
        self.level: Dict[Any, int] = {}


def _draw_backoff(config: TopoSenseConfig, rng: Pcg64) -> float:
    return float(rng.uniform(config.backoff_min, config.backoff_max))


def compute_demands(
    tree: SessionTree,
    schedule: LayerSchedule,
    reports: Mapping[Any, ReceiverReport],
    loss: Mapping[Any, Optional[float]],
    congestion: Mapping[Any, bool],
    node_bytes: Mapping[Any, float],
    state: ControllerState,
    config: TopoSenseConfig,
    now: float,
    rng: Pcg64,
) -> DemandResult:
    """Bottom-up Table I demand computation for one session.

    ``reports`` is keyed by leaf node; a leaf without one is read as
    subscribed at ``min_level``.  Side effects: updates each node's rolling
    congestion/bytes history in ``state`` and arms back-off timers.
    """
    sid = tree.session_id
    res = DemandResult()
    min_demand = schedule.cumulative(config.min_level)

    for node in tree.bottomup():
        ns = state.node(sid, node)
        is_leaf = tree.is_leaf(node)
        congested = congestion.get(node, False)
        hist = ns.history_bits(congested)
        cur_bytes = float(node_bytes.get(node, 0.0))
        prev = ns.prev_bytes
        if prev is None:
            eq = BwEquality.EQUAL
        else:
            eq = classify_bandwidth(prev, cur_bytes, config.bw_equal_tolerance)
        res.history[node] = hist
        res.equality[node] = eq

        if is_leaf:
            report = reports.get(node)
            level = report.level if report is not None else config.min_level
            node_loss = loss.get(node)
            parent = tree.parent.get(node)
            if parent is not None and congestion.get(parent, False):
                # Paper: "If a parent node is congested, the children assume
                # that they are congested because the parent is congested and
                # defer action to the parent."  The congested subtree's root
                # performs the reduction for everyone below it.  The deferred
                # demand is still capped by the last grant — the report's
                # level may predate a reduction issued one interval ago.
                res.action[node] = Action.MAINTAIN
                demand = schedule.cumulative(level)
                if ns.supply_recent is not None:
                    demand = min(demand, max(ns.supply_recent, min_demand))
            else:
                demand = _leaf_demand(
                    tree, schedule, state, config, now, rng, node, level, hist, eq,
                    node_loss, ns, res,
                )
        else:
            kids = tree.children[node]
            agg = max(res.demand[c] for c in kids)
            level = max(res.level[c] for c in kids)
            parent = tree.parent.get(node)
            parent_congested = parent is not None and congestion.get(parent, False)
            if parent_congested:
                # Defer to the subtree root above us.
                res.action[node] = Action.ACCEPT_CHILDREN
                demand = agg
            else:
                action = internal_action(hist, eq)
                res.action[node] = action
                if action is Action.ACCEPT_CHILDREN:
                    demand = agg
                elif action is Action.MAINTAIN:
                    demand = min(agg, schedule.cumulative(level))
                elif now - ns.last_reduce_at < config.reduce_deaf:
                    # A reduction is still taking effect (leave latency +
                    # queue drain); this interval's loss is stale evidence.
                    res.action[node] = Action.MAINTAIN
                    demand = min(agg, schedule.cumulative(level))
                else:  # REDUCE_HALF_OLD or REDUCE_HALF_RECENT
                    ref = (
                        ns.supply_recent
                        if action is Action.REDUCE_HALF_RECENT
                        else ns.supply_old
                    )
                    if ref is None:
                        ref = schedule.cumulative(level)
                    demand = min(agg, ref / 2.0)
                    _mark_reduced_subtree(tree, state, node, now)
                    _arm_backoff_for_drop(
                        tree, schedule, state, config, now, rng, node, level, demand
                    )

        demand = max(demand, min_demand)
        res.demand[node] = demand
        res.level[node] = level
        ns.push_congestion(congested)
        ns.push_bytes(cur_bytes)
        if is_leaf:
            ns.push_level(level)
    return res


def _leaf_demand(
    tree: SessionTree,
    schedule: LayerSchedule,
    state: ControllerState,
    config: TopoSenseConfig,
    now: float,
    rng: Pcg64,
    node: Any,
    level: int,
    hist: int,
    eq: BwEquality,
    node_loss: Optional[float],
    ns: Any,
    res: DemandResult,
) -> float:
    sid = tree.session_id
    current = schedule.cumulative(level)
    # Reports lag suggestions by a control interval: right after this node
    # was reduced, the report still shows the old level.  "Maintaining" that
    # stale level would re-suggest the subscription just revoked and set up
    # a two-tick limit cycle, so the baseline demand is capped by the most
    # recent grant.  (Probing above the grant is ADD_LAYER's job.)
    if ns.supply_recent is not None:
        current = min(current, max(ns.supply_recent, schedule.cumulative(config.min_level)))
    action = leaf_action(hist, eq)
    res.action[node] = action
    reducing = action in (
        Action.DROP_IF_HIGH_LOSS,
        Action.REDUCE_TO_SUPPLY_OLD,
        Action.REDUCE_HALF_OLD,
        Action.REDUCE_HALF_IF_VERY_HIGH,
    )
    if reducing and now - ns.last_reduce_at < config.reduce_deaf:
        # The previous reduction has not fully taken effect yet (leave
        # latency + queue drain): hold instead of compounding reductions.
        res.action[node] = Action.MAINTAIN
        return current

    if action is Action.ADD_LAYER:
        nxt = level + 1
        # Escalate only once the receiver has *held* the current level for
        # ``add_confirmation`` full intervals: loss evidence lags a join by
        # graft latency + queue-fill + queueing delay, so probing every
        # interval runs multiple layers past capacity before the first loss
        # report lands.
        confirmed = ns.level_confirmed(level, config.add_confirmation)
        if (
            confirmed
            and nxt <= schedule.n_layers
            and not state.is_backed_off(sid, tree.path_from_root(node), nxt, now)
            and (config.add_probability >= 1.0 or rng.random() < config.add_probability)
        ):
            return schedule.cumulative(nxt)
        return current

    if action is Action.DROP_IF_HIGH_LOSS:
        if node_loss is not None and node_loss >= config.high_loss and level > config.min_level:
            state.set_backoff(sid, node, level, now + _draw_backoff(config, rng))
            ns.last_reduce_at = now
            return schedule.cumulative(level - 1)
        return current

    if action is Action.MAINTAIN:
        return current

    if action is Action.REDUCE_TO_SUPPLY_OLD:
        ref = ns.supply_old
        if ref is not None and ref < current:
            ns.last_reduce_at = now
            return ref
        return current

    if action is Action.REDUCE_HALF_OLD:
        ref = ns.supply_old if ns.supply_old is not None else current
        demand = min(current, ref / 2.0)
        ns.last_reduce_at = now
        _arm_backoff_for_drop(tree, schedule, state, config, now, rng, node, level, demand)
        return demand

    if action is Action.REDUCE_HALF_IF_VERY_HIGH:
        if node_loss is not None and node_loss >= config.very_high_loss:
            ref = ns.supply_old if ns.supply_old is not None else current
            demand = min(current, ref / 2.0)
            ns.last_reduce_at = now
            _arm_backoff_for_drop(
                tree, schedule, state, config, now, rng, node, level, demand
            )
            return demand
        return current

    raise AssertionError(f"unhandled leaf action {action}")  # pragma: no cover


def _mark_reduced_subtree(tree: SessionTree, state: ControllerState, node: Any, now: float) -> None:
    """Start the post-reduction deaf window at ``node`` and every descendant.

    A reduction at a subtree root lowers every receiver below it; the loss
    those receivers report while the prune/drain completes must not trigger
    further reductions anywhere in the subtree.
    """
    sid = tree.session_id
    stack = [node]
    while stack:
        u = stack.pop()
        state.node(sid, u).last_reduce_at = now
        stack.extend(tree.children.get(u, ()))


def _arm_backoff_for_drop(
    tree: SessionTree,
    schedule: LayerSchedule,
    state: ControllerState,
    config: TopoSenseConfig,
    now: float,
    rng: Pcg64,
    node: Any,
    old_level: int,
    new_demand: float,
) -> None:
    """Back off the highest layer being dropped at ``node`` (paper §III)."""
    new_level = schedule.max_level_for(new_demand)
    if new_level < old_level and old_level >= 1:
        state.set_backoff(
            tree.session_id, node, old_level, now + _draw_backoff(config, rng)
        )


def allocate_supply(
    tree: SessionTree,
    schedule: LayerSchedule,
    demand: Mapping[Any, float],
    capacity_of: Callable[[Edge], float],
    fair_shares: Mapping[Tuple[Edge, Any], float],
    state: ControllerState,
    config: TopoSenseConfig,
) -> Dict[Any, int]:
    """Top-down supply allocation; returns per-leaf subscription levels.

    Side effect: records the granted supply in each node's rolling history
    (the reference for the next intervals' "reduce to supply" actions).
    """
    sid = tree.session_id
    supply: Dict[Any, float] = {}
    session_max = schedule.cumulative(schedule.n_layers)
    min_supply = schedule.cumulative(config.min_level)
    for node in tree.topdown():
        if node == tree.root:
            granted = min(demand[node], session_max)
        else:
            edge = (tree.parent[node], node)
            granted = min(supply[tree.parent[node]], demand[node], capacity_of(edge))
            share = fair_shares.get((edge, sid))
            if share is not None:
                granted = min(granted, share)
        granted = max(granted, min_supply)
        supply[node] = granted
        state.node(sid, node).push_supply(granted)
    levels: Dict[Any, int] = {}
    for leaf in tree.leaves:
        levels[leaf] = max(schedule.max_level_for(supply[leaf]), config.min_level)
    return levels
