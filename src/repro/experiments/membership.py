"""Shared membership plumbing: seeded churn draws and join/leave mechanics.

Two consumers drive receiver membership — the fault plan's
``receiver_leave`` / ``receiver_join`` events and the declarative workload
engine (:mod:`repro.workloads`):

* **plan side** — :func:`churn_events` is the seeded Poisson/Zipf churn
  draw behind :meth:`~repro.faults.plan.FaultPlan.membership_churn`.
  Randomness is consumed here, at build time; the output is a concrete
  ordered event list that round-trips through JSON and replays
  bit-identically.
* **scenario side** — :func:`leave_receiver` / :func:`join_receiver` are
  the idempotent depart/arrive operations over
  :meth:`~repro.experiments.scenario.Scenario.detach_receiver` /
  :meth:`~repro.experiments.scenario.Scenario.reattach_receiver`, shared by
  both consumers, so a workload join and a fault-plan ``receiver_join``
  build agents on the same deterministic RNG streams
  (``rcvagent/<id>/rejoin<n>``).  Receivers without agents
  (``mode="static"``, or parked workload receivers before their first
  join) are judged present by subscription level instead of agent
  liveness.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from ..simnet.rng import Pcg64, zipf_weights

__all__ = [
    "churn_events",
    "leave_receiver",
    "join_receiver",
]

#: (kind, time, receiver_id) rows emitted by :func:`churn_events`.
ChurnEvent = Tuple[str, float, Any]


def churn_events(
    receivers: Sequence[Any],
    start: float,
    end: float,
    rate: float = 0.1,
    burst: int = 1,
    off_time: Tuple[float, float] = (4.0, 12.0),
    zipf_s: float = 1.1,
    seed: int = 0,
) -> List[ChurnEvent]:
    """Seeded join/leave waves over ``[start, end)`` as concrete events.

    Leave waves arrive as a Poisson process of mean ``rate`` waves per
    second; each wave picks ``burst`` receivers (Zipf(``zipf_s``)-biased
    over ``receivers``'s order) to depart, each rejoining after a uniform
    draw from ``off_time`` seconds.  Returns ``("leave"|"join", time,
    receiver_id)`` rows in draw order (not time-sorted; callers sort).

    The draw order is load-bearing: the output must stay bit-identical to
    what numpy's generator drew from the same seed before ``Pcg64`` took
    over (``tests/test_churn.py::test_membership_churn_golden``).
    """
    receivers = list(receivers)
    if not receivers:
        raise ValueError("need at least one receiver to churn")
    if end <= start:
        raise ValueError("need end > start")
    if rate <= 0 or burst < 1:
        raise ValueError("need rate > 0 and burst >= 1")
    lo, hi = off_time
    if not 0 < lo <= hi:
        raise ValueError("off_time must be (lo, hi) with 0 < lo <= hi")
    rng = Pcg64(seed)
    weights = zipf_weights(len(receivers), zipf_s)
    events: List[ChurnEvent] = []
    t = start + rng.exponential(1.0 / rate)
    while t < end:
        picks = rng.sample(len(receivers), min(burst, len(receivers)), p=weights)
        for idx in picks:
            rid = receivers[idx]
            events.append(("leave", round(t, 6), rid))
            back = t + rng.uniform(lo, hi)
            if back < end:
                events.append(("join", round(back, 6), rid))
        t += rng.exponential(1.0 / rate)
    return events


# ----------------------------------------------------------------------
# Scenario-side mechanics (shared by the receiver_leave/receiver_join
# faults and WorkloadRunner)
# ----------------------------------------------------------------------
def leave_receiver(scenario: Any, handle: Any) -> bool:
    """Idempotent departure; returns True when a departure actually fired."""
    if handle.agent is not None and not handle.agent.active:
        return False  # already departed
    if handle.agent is None and handle.receiver.level == 0:
        return False  # parked/static receiver already absent
    scenario.detach_receiver(handle)
    return True


def join_receiver(scenario: Any, handle: Any) -> bool:
    """Idempotent (re)arrival; returns True when an arrival actually fired."""
    if handle.agent is not None and handle.agent.active:
        return False  # already present
    if handle.agent is None and handle.mode == "static" and handle.receiver.level > 0:
        return False  # static receiver already subscribed
    scenario.reattach_receiver(handle)
    return True
