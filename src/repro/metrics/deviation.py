"""The paper's relative-deviation metric (§IV).

For receiver ``i`` with subscription trace ``x_i(t)`` and optimal level
``y_i``::

                 sum_dt | (x_i(dt) - y_i) * |dt| |
    deviation =  -----------------------------------
                 sum_dt   y_i * |dt|

i.e. the time-weighted mean absolute deviation from the optimum, normalized
by the optimum.  Smaller is better; 0 means the receiver sat at its optimal
level for the whole window.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..simnet.rng import pairwise_sum
from ..simnet.tracing import StepTrace

__all__ = ["relative_deviation", "mean_relative_deviation"]


def relative_deviation(trace: StepTrace, optimal: float, t0: float, t1: float) -> float:
    """Relative deviation of one receiver over the window ``[t0, t1]``."""
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    if optimal <= 0:
        raise ValueError("optimal level must be positive")
    abs_err = 0.0
    for seg_t0, seg_t1, v in trace.segments(t0, t1):
        abs_err += abs(v - optimal) * (seg_t1 - seg_t0)
    return abs_err / (optimal * (t1 - t0))


def mean_relative_deviation(
    pairs: Iterable[Tuple[StepTrace, float]], t0: float, t1: float
) -> float:
    """Mean of :func:`relative_deviation` over (trace, optimal) pairs."""
    vals = [relative_deviation(trace, opt, t0, t1) for trace, opt in pairs]
    if not vals:
        raise ValueError("no receivers given")
    return pairwise_sum(vals) / len(vals)
