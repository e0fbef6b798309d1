"""Guard-efficacy metrics for adversarial experiments.

These quantify the two sides of the :class:`~repro.control.guard.ReportGuard`
trade-off: did it catch the liars (recall) without smearing honest receivers
(precision), and how much did the attack cost honest receivers anyway
(subscription-level divergence against a same-seed no-attack baseline run)?
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Set

from ..simnet.tracing import StepTrace

__all__ = [
    "quarantine_precision_recall",
    "mean_level_divergence",
]


def quarantine_precision_recall(
    quarantined: Iterable[Any], liars: Iterable[Any]
) -> Dict[str, float]:
    """Precision/recall of the guard's quarantine decisions.

    ``quarantined`` is who the guard locked out, ``liars`` is ground truth
    (the receivers a fault plan actually turned byzantine).  Returns a dict
    with ``precision``, ``recall``, ``false_positives`` and
    ``false_negatives``.  Empty sets follow the usual conventions: precision
    is 1.0 when nothing was quarantined, recall is 1.0 when there was nobody
    to catch.
    """
    q: Set[Any] = set(quarantined)
    truth: Set[Any] = set(liars)
    tp = len(q & truth)
    return {
        "precision": tp / len(q) if q else 1.0,
        "recall": tp / len(truth) if truth else 1.0,
        "false_positives": float(len(q - truth)),
        "false_negatives": float(len(truth - q)),
    }


def _merged_breakpoints(a: StepTrace, b: StepTrace, t0: float, t1: float):
    points = {t0}
    for trace in (a, b):
        points.update(t for t in trace.times if t0 < t < t1)
    return sorted(points)


def mean_level_divergence(a: StepTrace, b: StepTrace, t0: float, t1: float) -> float:
    """Time-weighted mean of ``|a(t) - b(t)|`` over ``[t0, t1]``.

    The honest-receiver degradation metric: ``a`` is a receiver's level trace
    under attack, ``b`` the same receiver's trace from the same-seed
    no-attack run.
    """
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    total = 0.0
    points = _merged_breakpoints(a, b, t0, t1)
    for seg_t0, seg_t1 in zip(points, points[1:] + [t1]):
        if seg_t1 <= seg_t0:
            continue
        total += abs(a.value_at(seg_t0) - b.value_at(seg_t0)) * (seg_t1 - seg_t0)
    return total / (t1 - t0)
