"""The TopoSense algorithm — orchestration of the six stages (paper Fig. 4).

::

    For each session:
        compute congestion state for each node        (stage 1)
    Estimate link bandwidths for all shared links     (stage 2)
    For each session:
        find bottleneck bandwidths for each node      (stage 3)
        estimate the fair share of BW on shared links (stage 4)
    For each session:
        compute the subscription level for each leaf  (stages 5+6)

:class:`TopoSense` is a pure, deterministic (given its RNG) computation over
the controller's internal image of the network: it never touches simulator
objects, which is what makes every stage unit-testable in isolation.  It
sees leaves, never receivers: the control agent (:mod:`repro.control.agent`)
feeds it :class:`~repro.core.types.SessionInput` records assembled from
discovery snapshots and the report of the receiver speaking for each leaf,
and addresses each resulting ``(session, leaf)`` level to the session's
receivers at that leaf.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..simnet.rng import Pcg64
from .bottleneck import compute_bottlenecks, compute_handleable
from .capacity import LinkCapacityEstimator, LinkObservation
from .config import TopoSenseConfig
from .congestion import compute_congestion, compute_loss_rates, compute_subtree_bytes
from .sharing import compute_fair_shares
from .state import ControllerState
from .subscription import allocate_supply, compute_demands
from .types import LeafLevels, SessionInput

__all__ = ["TopoSense"]

Edge = Tuple[Any, Any]


class TopoSense:
    """Stateful TopoSense controller logic.

    Parameters
    ----------
    config:
        Algorithm knobs; defaults to :class:`TopoSenseConfig()`.
    rng:
        Generator for the random back-off draws (a
        :class:`~repro.simnet.rng.Pcg64` stream seeded by
        :func:`~repro.simnet.rng.stream_seed`).
    """

    def __init__(
        self,
        config: Optional[TopoSenseConfig] = None,
        *,
        rng: Pcg64,
    ) -> None:
        self.config = config if config is not None else TopoSenseConfig()
        self.rng = rng
        self.state = ControllerState()
        self.estimator = LinkCapacityEstimator(self.config)
        self._last_update: Optional[float] = None
        #: Diagnostics from the most recent update (per session id).
        self.last_diagnostics: Dict[Any, dict] = {}
        #: Optional :class:`~repro.obs.profile.Profiler`; when set, each of
        #: the six algorithm stages is timed under ``toposense.stage*``.
        self.profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    def update(self, now: float, sessions: Sequence[SessionInput]) -> LeafLevels:
        """Run one algorithm interval and return suggested levels.

        ``sessions`` carries, for every session in the domain, the (possibly
        stale) session tree and the report of each of its leaves.  Returns
        the suggested level per ``(session_id, leaf)``, for every leaf of
        every session tree.
        """
        cfg = self.config
        interval = (
            cfg.interval if self._last_update is None else max(now - self._last_update, 1e-9)
        )
        self._last_update = now
        self.last_diagnostics = {}
        prof = self.profiler
        if prof is not None:
            t0 = perf_counter()

        # ---- Stage 1: congestion states, per session -------------------
        per_session: Dict[Any, dict] = {}
        for si in sessions:
            tree = si.tree
            leaf_loss = {}
            leaf_bytes = {}
            for leaf in tree.leaves:
                report = si.reports.get(leaf)
                if report is not None:
                    raw = report.loss_rate
                    if cfg.loss_ewma > 0:
                        # §V extension: EWMA smoothing to separate one-off
                        # burst losses from sustained congestion.
                        ns = self.state.node(si.session_id, leaf)
                        prev = ns.smoothed_loss
                        smoothed = (
                            raw if prev is None
                            else (1 - cfg.loss_ewma) * prev + cfg.loss_ewma * raw
                        )
                        ns.smoothed_loss = smoothed
                        leaf_loss[leaf] = smoothed
                    else:
                        leaf_loss[leaf] = raw
                    leaf_bytes[leaf] = report.bytes
            loss = compute_loss_rates(tree, leaf_loss)
            congestion = compute_congestion(tree, loss, cfg)
            node_bytes = compute_subtree_bytes(tree, leaf_bytes)
            per_session[si.session_id] = {
                "input": si,
                "loss": loss,
                "congestion": congestion,
                "bytes": node_bytes,
            }
        if prof is not None:
            t0 = prof.lap("toposense.stage1_congestion", t0)

        # ---- Stage 2: link capacity estimation (shared links only) ------
        # Fig. 4: "Estimate link bandwidths for all shared links".  A loss
        # rate min-propagates up a single-session chain, so estimating
        # unshared links would blame every link on the path and lock each
        # session to whatever throughput it happened to have while crashing.
        # Only links where sessions compete need a capacity number — it
        # feeds the fair-share split.
        link_users: Dict[Edge, int] = {}
        for data in per_session.values():
            for edge in data["input"].tree.edges:
                link_users[edge] = link_users.get(edge, 0) + 1
        observations: Dict[Edge, List[LinkObservation]] = {}
        for sid, data in per_session.items():
            tree = data["input"].tree
            for node in tree.topdown():
                edge = tree.incoming_edge(node)
                if edge is None or link_users[edge] < 2:
                    continue
                observations.setdefault(edge, []).append(
                    LinkObservation(sid, data["loss"][node], data["bytes"][node])
                )
        self.estimator.update(observations, interval)
        capacity_of = self.estimator.capacity
        if prof is not None:
            t0 = prof.lap("toposense.stage2_capacity", t0)

        # ---- Stages 3+4: bottlenecks and fair shares --------------------
        trees = [d["input"].tree for d in per_session.values()]
        schedules = {d["input"].session_id: d["input"].schedule for d in per_session.values()}
        for sid, data in per_session.items():
            tree = data["input"].tree
            bottlenecks = compute_bottlenecks(tree, capacity_of)
            data["bottleneck"] = bottlenecks
            data["handleable"] = compute_handleable(tree, bottlenecks)
        if prof is not None:
            t0 = prof.lap("toposense.stage3_bottleneck", t0)
        fair_shares = compute_fair_shares(trees, schedules, capacity_of)
        if prof is not None:
            t0 = prof.lap("toposense.stage4_fair_share", t0)

        # ---- Stages 5+6: demand and supply ------------------------------
        suggestions: LeafLevels = {}
        for sid, data in per_session.items():
            si: SessionInput = data["input"]
            tree = si.tree
            schedule = si.schedule
            if prof is not None:
                t0 = perf_counter()
            result = compute_demands(
                tree,
                schedule,
                si.reports,
                data["loss"],
                data["congestion"],
                data["bytes"],
                self.state,
                cfg,
                now,
                self.rng,
            )
            # Cap demand by the subtree's handleable bandwidth: no subtree
            # subscribes past the best source-to-receiver path inside it.
            min_demand = schedule.cumulative(cfg.min_level)
            for node, h in data["handleable"].items():
                if h != math.inf:
                    result.demand[node] = max(min(result.demand[node], h), min_demand)
            if prof is not None:
                t0 = prof.lap("toposense.stage5_demand", t0)
            levels_by_leaf = allocate_supply(
                tree, schedule, result.demand, capacity_of, fair_shares,
                self.state, cfg,
            )
            if prof is not None:
                t0 = prof.lap("toposense.stage6_supply", t0)
            for leaf, level in levels_by_leaf.items():
                suggestions[(sid, leaf)] = level
            self.last_diagnostics[sid] = {
                "loss": data["loss"],
                "congestion": data["congestion"],
                "demand": result.demand,
                "actions": result.action,
                "history": result.history,
                "equality": result.equality,
                "bottleneck": data["bottleneck"],
                "handleable": data["handleable"],
            }

        self.state.interval_index += 1
        if self.state.interval_index % 50 == 0:
            self.state.prune_backoffs(now)
        return suggestions
