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
   the subtree's layers).  Only the raised receiver's path is checked, and
   that is exact: the allocation is feasible before every trial, and
   raising receiver *r* from level *l* changes the load only of the edges
   on *r*'s source path whose session's highest level was *l*.  Each edge
   sums its sessions in ``plans`` order, so every comparison adds the same
   floats a full recheck of every edge would;
4. repeat until no increment is feasible.

For layered multicast on trees this greedy reaches the lexicographically
maximal feasible allocation layer-by-layer, and reproduces the closed-form
optima of the paper's Topology A (levels set by each group's bottleneck) and
Topology B (4 layers each).  :func:`receiver_paths`, :func:`carried_levels`
and :func:`overloaded` are the one multicast load rule; the exhaustive
reference (`repro.baselines.lexicographic`) checks feasibility with them too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..core.types import LeafLevels, SessionInput
from ..media.layers import LayerSchedule
from ..simnet.topology import Network
from .session_plan import SessionPlan

__all__ = [
    "optimal_levels", "OracleController", "receiver_paths", "carried_levels", "overloaded",
]

Edge = Tuple[Any, Any]


def receiver_paths(
    network: Network, plans: Sequence[SessionPlan]
) -> Dict[Any, Dict[Any, List[Edge]]]:
    """Per session (in ``plans`` order), each receiver's shortest path from
    the session source as a list of edges."""
    paths: Dict[Any, Dict[Any, List[Edge]]] = {}
    for p in plans:
        paths[p.session_id] = by_receiver = {}
        for rid, node in p.receiver_nodes.items():
            path = network.shortest_path(p.source, node)
            by_receiver[rid] = list(zip(path, path[1:]))
    return paths


def carried_levels(
    paths: Mapping[Any, Mapping[Any, Sequence[Edge]]],
    levels: Mapping[Tuple[Any, Any], int],
) -> Dict[Edge, Dict[Any, int]]:
    """Per edge, per session: the highest level among the session's
    receivers downstream of the edge, sessions in ``paths`` order."""
    carried: Dict[Edge, Dict[Any, int]] = {}
    for sid, by_receiver in paths.items():
        for rid, edges in by_receiver.items():
            lvl = levels[(sid, rid)]
            for e in edges:
                per = carried.setdefault(e, {})
                if per.get(sid, 0) < lvl:
                    per[sid] = lvl
    return carried


def overloaded(
    network: Network,
    edge: Edge,
    carried: Mapping[Any, int],
    schedules: Mapping[Any, LayerSchedule],
) -> bool:
    """Whether ``edge``'s multicast load exceeds its true bandwidth: the
    sum, over the sessions it carries, of the cumulative rate of each
    one's highest level there."""
    load = 0.0
    for sid, lvl in carried.items():
        load += schedules[sid].cumulative(lvl)
    return load > network.link(*edge).bandwidth + 1e-9


def optimal_levels(
    network: Network,
    plans: Sequence[SessionPlan],
) -> Dict[Tuple[Any, Any], int]:
    """Optimal subscription level per ``(session_id, receiver_id)``.

    ``plans`` describe each session: its source, schedule, and the node of
    every receiver.  Capacities are read from the real network — this is the
    oracle's unfair advantage over TopoSense.
    """
    paths = receiver_paths(network, plans)
    schedules = {p.session_id: p.schedule for p in plans}
    levels = {(p.session_id, rid): 1 for p in plans for rid in p.receiver_nodes}
    carried = carried_levels(paths, levels)
    if any(overloaded(network, e, per, schedules) for e, per in carried.items()):
        # Even all-base overloads some link; the oracle still reports base
        # levels (the paper's premise is that the base layer always fits).
        return levels

    keys = sorted(levels, key=str)
    progress = True
    while progress:
        progress = False
        for key in keys:
            sid, rid = key
            lvl = levels[key]
            if lvl >= schedules[sid].n_layers:
                continue
            # The edges where this raise makes ``rid`` its session's highest.
            raised = [(e, carried[e]) for e in paths[sid][rid] if carried[e][sid] == lvl]
            for _, per in raised:
                per[sid] = lvl + 1
            if any(overloaded(network, e, per, schedules) for e, per in raised):
                for _, per in raised:
                    per[sid] = lvl
            else:
                levels[key] = lvl + 1
                progress = True
    return levels


class OracleController:
    """Drop-in 'algorithm' for :class:`~repro.control.agent.ControllerAgent`
    that always suggests the precomputed optimum (upper-bound baseline),
    per ``(session_id, node)``: co-located receivers of a session share
    their path, so the greedy gives them one level."""

    def __init__(self, network: Network, plans: Sequence[SessionPlan]):
        optimum = optimal_levels(network, plans)
        self.levels: LeafLevels = {
            (p.session_id, node): optimum[(p.session_id, rid)]
            for p in plans for rid, node in p.receiver_nodes.items()
        }

    def update(self, now: float, sessions: Sequence[SessionInput]) -> LeafLevels:
        """Return the static optimal levels for every planned leaf."""
        out: LeafLevels = {}
        for si in sessions:
            for leaf in si.tree.leaves:
                key = (si.session_id, leaf)
                if key in self.levels:
                    out[key] = self.levels[key]
        return out
