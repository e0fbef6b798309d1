"""Seeded samplers behind the declarative workload builders.

All randomness is consumed *here*, at build time, from private
``Pcg64(seed)`` streams (no numpy: ``Pcg64`` draws ``exponential`` by
numpy's own ziggurat) — the compiled
:class:`~repro.workloads.spec.WorkloadSpec` is a concrete event list that
round-trips through JSON and replays bit-identically (the same discipline
as :class:`~repro.faults.plan.FaultPlan`).

Three demand primitives:

* :func:`flash_crowd_times` — ``size`` join instants inside a ramp window,
  with configurable ramp shape (``linear`` / ``exp``);
* :func:`assign_sessions` — Zipf-popularity session choice per receiver
  (a few sessions take most of the audience);
* :func:`diurnal_leave_times` — sinusoidal-rate Poisson departure waves
  (thinning construction), modelling day/night churn cycles.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Tuple

from ..simnet.rng import Pcg64, zipf_weights

__all__ = [
    "RAMP_SHAPES",
    "flash_crowd_times",
    "assign_sessions",
    "diurnal_leave_times",
]

RAMP_SHAPES = ("linear", "exp")


def flash_crowd_times(
    size: int,
    at: float,
    ramp: float = 2.0,
    shape: str = "linear",
    seed: int = 0,
) -> List[float]:
    """``size`` join instants in ``[at, at + ramp)``, sorted ascending.

    Shapes: ``linear`` spreads arrivals evenly; ``exp`` compresses them
    toward the *end* of the window (viral growth — the arrival count grows
    exponentially, so most of the crowd lands in the final fraction of the
    ramp).  A seeded jitter of up to half the mean spacing keeps arrivals
    from colliding on identical timestamps.
    """
    if size < 1:
        raise ValueError("flash crowd needs size >= 1")
    if ramp <= 0:
        raise ValueError("ramp must be positive")
    if at < 0:
        raise ValueError("crowd start must be >= 0")
    if shape not in RAMP_SHAPES:
        raise ValueError(f"unknown ramp shape {shape!r} (one of {RAMP_SHAPES})")
    rng = Pcg64(seed)
    spacing = ramp / size
    times: List[float] = []
    for i in range(size):
        frac = i / size
        if shape == "exp":
            # N(t) ~ e^{kt}: the i-th arrival lands at the log of its
            # rank, normalised into the window.
            frac = math.log1p(i) / math.log1p(size)
        jitter = rng.uniform(0.0, spacing * 0.5)
        times.append(at + min(frac * ramp + jitter, ramp * (1.0 - 1e-9)))
    times.sort()
    return [round(t, 6) for t in times]


def assign_sessions(
    receiver_ids: Sequence[Any],
    session_ids: Sequence[Any],
    zipf_s: float = 1.1,
    seed: int = 0,
) -> List[Tuple[Any, Any]]:
    """Pair each receiver with a session via a seeded Zipf popularity draw.

    Sessions earlier in ``session_ids`` are more popular (rank order is the
    popularity order).  Returns ``(receiver_id, session_id)`` pairs in
    ``receiver_ids`` order.
    """
    receiver_ids = list(receiver_ids)
    session_ids = list(session_ids)
    if not receiver_ids:
        raise ValueError("need at least one receiver to assign")
    if not session_ids:
        raise ValueError("need at least one session to assign")
    weights = zipf_weights(len(session_ids), zipf_s)  # validates zipf_s > 0
    picks = Pcg64(seed).choice(len(session_ids), size=len(receiver_ids), p=weights)
    return [(rid, session_ids[p]) for rid, p in zip(receiver_ids, picks)]


def diurnal_leave_times(
    start: float,
    end: float,
    period: float = 120.0,
    peak_rate: float = 0.5,
    trough_rate: float = 0.05,
    seed: int = 0,
) -> List[float]:
    """Departure-wave instants from a sinusoidal-rate Poisson process.

    The instantaneous wave rate swings between ``trough_rate`` and
    ``peak_rate`` once per ``period`` (troughs at ``start``), built by
    thinning a homogeneous ``peak_rate`` Poisson stream — the standard
    construction for inhomogeneous processes, so the draw count per seed is
    reproducible.
    """
    if end <= start:
        raise ValueError("need end > start")
    if period <= 0:
        raise ValueError("period must be positive")
    if not 0 < trough_rate <= peak_rate:
        raise ValueError("need 0 < trough_rate <= peak_rate")
    rng = Pcg64(seed)
    times: List[float] = []
    t = start + rng.exponential(1.0 / peak_rate)
    while t < end:
        phase = (t - start) / period
        rate = trough_rate + (peak_rate - trough_rate) * 0.5 * (
            1.0 - math.cos(2.0 * math.pi * phase)
        )
        if rng.random() < rate / peak_rate:
            times.append(round(t, 6))
        t += rng.exponential(1.0 / peak_rate)
    return times
