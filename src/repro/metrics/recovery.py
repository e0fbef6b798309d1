"""Fault-recovery metrics: time-to-recover and suggestion-gap measures.

The chaos experiments quantify graceful degradation with two measures:

* **the widest suggestion gap** — how long a receiver went without hearing
  from the controller (the paper's receivers make unilateral decisions
  inside such gaps);
* **hearing within a bound** — how long after a reference instant (a fault
  clearing, a rejoin, an agent starting) until a receiver is back under
  controller guidance (first suggestion).
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

__all__ = ["RECOVERY_INTERVALS", "hears_within", "max_suggestion_gap"]

#: DESIGN §8's recovery bound: every receiver hears the controller within
#: three control intervals of a fault clearing or of its agent starting.
RECOVERY_INTERVALS = 3


def max_suggestion_gap(
    suggestion_times: Sequence[float], t0: float, t1: float
) -> float:
    """Largest interval inside ``[t0, t1]`` with no suggestion arriving.

    The leading gap (``t0`` to the first arrival) and trailing gap (last
    arrival to ``t1``) count, so a receiver that heard nothing at all has
    the gap ``t1 - t0``.
    """
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    points = [t0] + [t for t in suggestion_times if t0 <= t <= t1] + [t1]
    return max(b - a for a, b in zip(points, points[1:]))


def hears_within(
    suggestion_times: Sequence[float],
    refs: Sequence[float],
    within: float,
) -> Dict[str, object]:
    """Whether a receiver heard the controller within ``within`` s of each
    reference instant.

    Per reference ``c`` the time to the first suggestion after it is
    ``inf`` when none arrived; the receiver *recovered* when it is at most
    ``within``.  Returns::

        {"per_fault": [{"clear": c, "t_suggestion": dt, "recovered": bool}],
         "recovered_all": bool}
    """
    per_fault = []
    for c in refs:
        dt = next((t - c for t in suggestion_times if t > c), math.inf)
        per_fault.append({"clear": c, "t_suggestion": dt, "recovered": dt <= within})
    return {
        "per_fault": per_fault,
        "recovered_all": all(e["recovered"] for e in per_fault),
    }
