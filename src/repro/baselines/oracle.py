"""Oracle (optimal) subscription computation.

The paper evaluates TopoSense by comparing against the *optimal* subscription
("Since we know the optimal solutions for our topologies, we evaluate the
performance of TopoSense by comparing its behavior with that of the
optimal").  For arbitrary topologies we compute the optimum by greedy
water-filling with **true** link capacities (which TopoSense never sees):

1. every receiver starts at the base layer;
2. round-robin over receivers, try to raise each one's level by one layer;
3. an increment is feasible if every link still fits its multicast load,
   where a link's load for a session is the cumulative rate of the *highest*
   level among receivers downstream of it (multicast carries the union of
   the subtree's layers);
4. repeat until no increment is feasible.

For layered multicast on trees this greedy reaches the lexicographically
maximal feasible allocation layer-by-layer, and reproduces the closed-form
optima of the paper's Topology A (levels set by each group's bottleneck) and
Topology B (4 layers each).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence, Tuple

from ..core.types import SessionInput, SuggestionSet
from ..simnet.topology import Network
from .session_plan import SessionPlan

__all__ = ["optimal_levels", "OracleController"]

Edge = Tuple[Any, Any]


def _session_tree_paths(network: Network, source: Any, nodes: Sequence[Any]):
    """parent map of the union of shortest paths source -> nodes."""
    parent: Dict[Any, Any] = {}
    for node in nodes:
        path = network.shortest_path(source, node)
        for u, v in zip(path, path[1:]):
            parent[v] = u
    return parent


def _downstream_max_level(
    parent: Mapping[Any, Any],
    levels: Mapping[Any, int],
    rcv_nodes: Mapping[Any, Any],
) -> Dict[Edge, int]:
    """For each tree edge, the max level among receivers below it."""
    out: Dict[Edge, int] = {}
    for rid, node in rcv_nodes.items():
        lvl = levels[rid]
        v = node
        while v in parent:
            u = parent[v]
            e = (u, v)
            if out.get(e, 0) < lvl:
                out[e] = lvl
            v = u
    return out


def optimal_levels(
    network: Network,
    plans: Sequence[SessionPlan],
) -> Dict[Tuple[Any, Any], int]:
    """Optimal subscription level per ``(session_id, receiver_id)``.

    ``plans`` describe each session: its source, schedule, and the node of
    every receiver.  Capacities are read from the real network — this is the
    oracle's unfair advantage over TopoSense.
    """
    parents = {
        p.session_id: _session_tree_paths(network, p.source, list(p.receiver_nodes.values()))
        for p in plans
    }
    levels: Dict[Tuple[Any, Any], int] = {
        (p.session_id, rid): min(1, p.schedule.n_layers)
        for p in plans
        for rid in p.receiver_nodes
    }

    def feasible() -> bool:
        load: Dict[Edge, float] = {}
        for p in plans:
            lv = {rid: levels[(p.session_id, rid)] for rid in p.receiver_nodes}
            per_edge = _downstream_max_level(parents[p.session_id], lv, p.receiver_nodes)
            for e, lvl in per_edge.items():
                load[e] = load.get(e, 0.0) + p.schedule.cumulative(lvl)
        for e, l in load.items():
            if l > network.link(*e).bandwidth + 1e-9:
                return False
        return True

    if not feasible():
        # Even all-base overloads some link; the oracle still reports base
        # levels (the paper's premise is that the base layer always fits).
        return levels

    keys = sorted(levels, key=str)
    progress = True
    while progress:
        progress = False
        for key in keys:
            plan = next(p for p in plans if p.session_id == key[0])
            if levels[key] >= plan.schedule.n_layers:
                continue
            levels[key] += 1
            if feasible():
                progress = True
            else:
                levels[key] -= 1
    return levels


class OracleController:
    """Drop-in 'algorithm' for :class:`~repro.control.agent.ControllerAgent`
    that always suggests the precomputed optimum (upper-bound baseline)."""

    def __init__(self, network: Network, plans: Sequence[SessionPlan]):
        self.levels = optimal_levels(network, plans)

    def update(self, now: float, sessions: Sequence[SessionInput]) -> SuggestionSet:
        """Return the static optimal levels for all known receivers."""
        out = SuggestionSet()
        for si in sessions:
            for leaf, rid in si.tree.receivers.items():
                key = (si.session_id, rid)
                if key in self.levels:
                    out.levels[key] = self.levels[key]
        return out
