"""Stability metrics for Figures 6 and 7.

The paper plots, per topology and traffic model:

* the **maximum number of subscription changes** by any receiver (Topology A)
  or within any session (Topology B) over the 1200 s run, and
* the **mean time elapsed between successive changes** for that receiver or
  session.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..simnet.tracing import StepTrace

__all__ = ["worst_receiver_stability"]


def worst_receiver_stability(
    traces: Sequence[StepTrace], t0: float, t1: float
) -> Tuple[int, float]:
    """(max changes by any trace, mean time between changes for that trace).

    This is exactly the pair of values each point of the paper's Figs. 6/7
    reports.  With no traces a ValueError is raised.
    """
    if not traces:
        raise ValueError("no traces given")
    worst = max(traces, key=lambda tr: tr.num_changes(t0, t1))
    return worst.num_changes(t0, t1), worst.mean_time_between_changes(t0, t1)
