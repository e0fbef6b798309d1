"""Fairness indices (supporting metrics for the Fig. 8 analysis)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["jain_index", "bandwidth_shares"]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 = perfectly equal; 1/n = maximally unfair.  All-zero input returns
    1.0 (everyone equally has nothing).
    """
    import numpy as np

    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("no values given")
    if (x < 0).any():
        raise ValueError("values must be non-negative")
    denom = x.size * float((x**2).sum())
    if denom == 0:
        return 1.0
    return float(x.sum()) ** 2 / denom


def bandwidth_shares(values: Sequence[float]) -> np.ndarray:
    """Normalize throughputs to fractions of the total (sums to 1)."""
    import numpy as np

    x = np.asarray(values, dtype=float)
    total = x.sum()
    if total <= 0:
        raise ValueError("total bandwidth must be positive")
    return x / total
