"""Stage 2 — estimating link capacities (paper §III).

TopoSense has no access to router state, so link capacities must be inferred
from what receivers report.  A link is assumed infinite until there is strong
evidence of congestion **on that link** (rather than further downstream):

1. the overall (byte-weighted) packet loss at the link's head node exceeds
   ``link_loss_threshold``, and
2. *every* session sharing the link sees loss above
   ``session_loss_threshold`` at that node.

Condition 2 exists because a session's loss at an internal node is the
minimum over its subtree — one lossy session with one loss-free session says
the bottleneck is below the branch point, not on the shared link.

When both hold, the capacity estimate is the number of bits observed crossing
the link in the interval.  Because in-flight packets make that an
underestimate, the estimate inflates by ``capacity_inflation`` every interval
and is reset to infinity every ``capacity_reset_period`` intervals and
re-learned (transient non-conforming flows and downstream bottlenecks can
poison an estimate; the reset bounds the damage — and causes the brief
over-subscription excursions visible in the paper's Fig. 9).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .config import TopoSenseConfig

__all__ = ["LinkObservation", "LinkCapacityEstimator"]

Edge = Tuple[Any, Any]

INF = math.inf


class LinkObservation:
    """What one session observed at one link during one interval."""

    __slots__ = ("session_id", "loss", "bytes")

    def __init__(self, session_id: Any, loss: Optional[float], bytes_: float) -> None:
        self.session_id = session_id
        self.loss = loss
        self.bytes = bytes_


class _LinkEstimate:
    __slots__ = ("capacity", "age")

    def __init__(self) -> None:
        self.capacity = INF
        self.age = 0


class LinkCapacityEstimator:
    """Persistent per-link capacity estimates, updated every interval."""

    def __init__(self, config: TopoSenseConfig) -> None:
        self.config = config
        self._links: Dict[Edge, _LinkEstimate] = {}

    # ------------------------------------------------------------------
    def capacity(self, link: Edge) -> float:
        """Current estimate for ``link`` in bits/s (inf when unknown)."""
        est = self._links.get(link)
        return est.capacity if est is not None else INF

    # ------------------------------------------------------------------
    def update(
        self,
        observations: Mapping[Edge, List[LinkObservation]],
        interval: float,
    ) -> None:
        """Process one interval's per-link observations.

        ``observations`` maps each directed link to the sessions crossing it,
        with each session's loss rate at the link's head node and the max
        bytes any downstream receiver of that session got.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        cfg = self.config
        seen = set()
        for link, obs in observations.items():
            seen.add(link)
            est = self._links.get(link)
            if est is None:
                est = self._links[link] = _LinkEstimate()
            if est.capacity != INF:
                est.age += 1
                if est.age >= cfg.capacity_reset_period:
                    # Periodic reset: forget and re-learn.
                    est.capacity = INF
                    est.age = 0
                    continue
            if est.capacity != INF:
                # Paper: once computed, the estimate only inflates until the
                # periodic reset.  Re-estimating every congested interval
                # would ratchet the estimate down while queues drain after a
                # reduction (observed bytes fall while loss persists).
                self._inflate(est)
                # Self-correction for underestimates: if the link visibly
                # carried more than the estimate, the estimate is provably
                # low — raise it to the observed throughput (the initial
                # sample covers only the part of the interval spent at the
                # higher level, so underestimates are common; paper §V).
                observed = sum(o.bytes for o in obs) * 8.0 / interval
                if observed > est.capacity:
                    est.capacity = observed
                continue
            known = [o for o in obs if o.loss is not None]
            if not known:
                continue
            total_bytes = sum(o.bytes for o in known)
            if total_bytes <= 0:
                continue
            overall_loss = sum(o.loss * o.bytes for o in known) / total_bytes
            # Sessions with no loss info count against the fraction: absence
            # of evidence must not make the link look congested.
            lossy = sum(1 for o in known if o.loss > cfg.session_loss_threshold)
            link_congested = (
                overall_loss > cfg.link_loss_threshold
                and lossy / len(obs) >= cfg.link_lossy_fraction
            )
            if link_congested:
                est.capacity = total_bytes * 8.0 / interval
                est.age = 0
        # Links that vanished from every session tree keep their estimate but
        # continue aging so they eventually reset.
        for link, est in self._links.items():
            if link not in seen and est.capacity != INF:
                est.age += 1
                if est.age >= cfg.capacity_reset_period:
                    est.capacity = INF
                    est.age = 0

    def _inflate(self, est: _LinkEstimate) -> None:
        if est.capacity != INF:
            est.capacity *= 1.0 + self.config.capacity_inflation

    def reset(self) -> None:
        """Forget every estimate (used by tests and topology changes)."""
        self._links.clear()
