"""Fairness indices (supporting metrics for the Fig. 8 analysis)."""

from __future__ import annotations

from typing import List, Sequence

from ..simnet.rng import pairwise_sum

__all__ = ["jain_index", "bandwidth_shares"]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 = perfectly equal; 1/n = maximally unfair.  All-zero input returns
    1.0 (everyone equally has nothing).
    """
    x = [float(v) for v in values]
    if not x:
        raise ValueError("no values given")
    if any(v < 0 for v in x):
        raise ValueError("values must be non-negative")
    denom = len(x) * pairwise_sum([v * v for v in x])
    if denom == 0:
        return 1.0
    return pairwise_sum(x) ** 2 / denom


def bandwidth_shares(values: Sequence[float]) -> List[float]:
    """Normalize throughputs to fractions of the total (sums to 1)."""
    x = [float(v) for v in values]
    total = pairwise_sum(x)
    if total <= 0:
        raise ValueError("total bandwidth must be positive")
    return [v / total for v in x]
