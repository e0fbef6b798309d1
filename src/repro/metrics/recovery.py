"""Fault-recovery metrics: time-to-recover and suggestion-gap measures.

The chaos experiments quantify graceful degradation with two families of
measures:

* **suggestion gaps** — how long receivers went without hearing from the
  controller (the paper's receivers make unilateral decisions inside such
  gaps);
* **time to recover** — how long after a fault *clears* until a receiver is
  back under controller guidance (first suggestion).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

__all__ = [
    "time_to_suggestion",
    "suggestion_gaps",
    "max_suggestion_gap",
    "recovery_report",
]


def time_to_suggestion(suggestion_times: Sequence[float], after: float) -> float:
    """Seconds from ``after`` until the next suggestion arrival.

    ``inf`` when no suggestion ever arrived after ``after`` — the receiver
    never re-entered controller guidance.
    """
    for t in suggestion_times:
        if t > after:
            return t - after
    return math.inf


def suggestion_gaps(
    suggestion_times: Sequence[float], t0: float, t1: float
) -> List[float]:
    """Gaps between consecutive suggestion arrivals inside ``[t0, t1]``.

    The leading gap (``t0`` to the first arrival) and trailing gap (last
    arrival to ``t1``) are included, so a receiver that heard nothing at all
    contributes the single gap ``t1 - t0``.
    """
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    inside = [t for t in suggestion_times if t0 <= t <= t1]
    points = [t0] + inside + [t1]
    return [b - a for a, b in zip(points, points[1:])]


def max_suggestion_gap(
    suggestion_times: Sequence[float], t0: float, t1: float
) -> float:
    """Largest interval inside ``[t0, t1]`` with no suggestion arriving."""
    return max(suggestion_gaps(suggestion_times, t0, t1))


def recovery_report(
    suggestion_times: Sequence[float],
    clear_times: Sequence[float],
    within: float,
) -> Dict[str, object]:
    """Summarise recovery after each fault-clear time.

    Per clear time ``c`` the receiver *recovered* when it received a
    controller suggestion within ``within`` seconds of ``c``.  Returns::

        {"per_fault": [{"clear": c, "t_suggestion": dt, "recovered": bool}],
         "recovered_all": bool}
    """
    per_fault = []
    for c in clear_times:
        dt = time_to_suggestion(suggestion_times, c)
        per_fault.append({"clear": c, "t_suggestion": dt, "recovered": dt <= within})
    return {
        "per_fault": per_fault,
        "recovered_all": all(e["recovered"] for e in per_fault),
    }
