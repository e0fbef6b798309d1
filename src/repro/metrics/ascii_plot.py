"""Terminal plots for traces (no plotting dependencies).

The paper's figures are line plots; in a terminal the closest useful
rendering is a row-per-bucket timeline.  :func:`render_level_timeline` draws
a subscription-level trace as a horizontal strip of digits (one character
per time bucket).  Used by ``python -m repro fig9 --plot``.
"""

from __future__ import annotations

from typing import List

from ..simnet.tracing import StepTrace

__all__ = ["render_level_timeline"]


def render_level_timeline(
    trace: StepTrace,
    t0: float,
    t1: float,
    width: int = 80,
    label: str = "",
) -> str:
    """One-line timeline: each column shows the level held in that bucket.

    >>> tr = StepTrace(0.0, 1); tr.record(5.0, 4)
    >>> render_level_timeline(tr, 0.0, 10.0, width=10)
    '1111144444'
    """
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    if width < 1:
        raise ValueError("width must be >= 1")
    dt = (t1 - t0) / width
    chars: List[str] = []
    for i in range(width):
        mid = t0 + (i + 0.5) * dt
        level = int(round(trace.value_at(mid)))
        chars.append(str(level) if 0 <= level <= 9 else "#")
    line = "".join(chars)
    return f"{label}{line}" if label else line
