"""Exact lexicographically-optimal allocation (Sarkar & Tassiulas reference).

The paper leans on Sarkar and Tassiulas' results: max-min fair allocations
may not exist for discrete layers, and the *lexicographically optimal*
allocation (maximize the sorted level vector, poorest first) exists but is
NP-hard in general.  This module computes it **exactly by exhaustive
search** for small instances, as a ground-truth reference for

* validating the greedy oracle (`repro.baselines.oracle`) on trees, and
* tests that explore where greedy and lexicographic optima agree.

Complexity is O((L+1)^R) over R receivers with L layers — only use this for
handfuls of receivers.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Mapping, Sequence, Tuple

from ..simnet.topology import Network
from .oracle import carried_levels, overloaded, receiver_paths
from .session_plan import SessionPlan

__all__ = ["lexicographic_optimal", "allocation_feasible"]


def allocation_feasible(
    network: Network,
    plans: Sequence[SessionPlan],
    levels: Mapping[Tuple[Any, Any], int],
) -> bool:
    """True when every link fits its multicast load under ``levels``
    (the oracle's load rule: :func:`~repro.baselines.oracle.overloaded`)."""
    carried = carried_levels(receiver_paths(network, plans), levels)
    schedules = {p.session_id: p.schedule for p in plans}
    return not any(overloaded(network, e, per, schedules) for e, per in carried.items())


def lexicographic_optimal(
    network: Network,
    plans: Sequence[SessionPlan],
    max_receivers: int = 8,
) -> Dict[Tuple[Any, Any], int]:
    """Exhaustive lexicographically-optimal allocation.

    Among all feasible allocations, pick the one whose sorted level vector
    (ascending) is lexicographically largest — i.e., first maximize the
    worst-off receiver, then the second-worst, and so on.  Raises
    ValueError beyond ``max_receivers`` receivers (exponential search).
    """
    keys = [
        (p.session_id, rid) for p in plans for rid in p.receiver_nodes
    ]
    if len(keys) > max_receivers:
        raise ValueError(
            f"{len(keys)} receivers exceed the exhaustive-search cap "
            f"({max_receivers})"
        )
    schedules = {p.session_id: p.schedule for p in plans}
    best_vec = None
    best: Dict[Tuple[Any, Any], int] = {key: 1 for key in keys}
    ranges = [range(1, schedules[sid].n_layers + 1) for sid, _ in keys]
    for combo in itertools.product(*ranges):
        levels = dict(zip(keys, combo))
        if not allocation_feasible(network, plans, levels):
            continue
        vec = tuple(sorted(combo)) + (sum(combo),)
        if best_vec is None or vec > best_vec:
            best_vec = vec
            best = levels
    return best
