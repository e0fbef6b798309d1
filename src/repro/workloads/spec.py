"""Declarative workload specifications (the ``FaultPlan`` of demand).

A :class:`WorkloadSpec` is two plain lists:

* a **population** of :class:`ReceiverSpec` rows — receivers that exist
  (parked, subscribed to nothing) before the run starts;
* an ordered list of :class:`WorkloadEvent` rows — concrete, timed
  ``join``/``leave`` actions against that population.

Builder methods (:meth:`WorkloadSpec.flash_crowd`,
:meth:`WorkloadSpec.zipf_sessions`, :meth:`WorkloadSpec.diurnal_churn`)
consume their randomness at build time through the seeded samplers in
:mod:`repro.workloads.builders`, so the spec itself is deterministic data:
it round-trips through JSON
(:meth:`to_dict` / :meth:`from_dict`) and replays bit-identically when
compiled onto a scenario by :class:`~repro.workloads.runner.WorkloadRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..simnet.rng import Pcg64
from .builders import assign_sessions, diurnal_leave_times, flash_crowd_times

__all__ = ["WORKLOAD_KINDS", "ReceiverSpec", "WorkloadEvent", "WorkloadSpec"]

#: Event kinds understood by :class:`~repro.workloads.runner.WorkloadRunner`.
WORKLOAD_KINDS = ("join", "leave")


@dataclass(frozen=True)
class ReceiverSpec:
    """One population member: where it sits and how it behaves when live."""

    receiver_id: Any
    node: Any
    session_id: Any
    mode: str = "controlled"
    controller: str = "default"

    def __post_init__(self) -> None:
        if self.mode not in ("controlled", "rlm", "static"):
            raise ValueError(f"unknown receiver mode {self.mode!r}")


@dataclass(frozen=True)
class WorkloadEvent:
    """One timed membership action against a population member."""

    time: float
    kind: str
    receiver_id: Any

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}")


def _event_key(e: WorkloadEvent) -> Tuple[float, str, str]:
    return (e.time, e.kind, str(e.receiver_id))


def _rows(data: Any, key: str, fields: Tuple[str, ...]) -> List[dict]:
    """``data[key]``, checked to be a list of objects that carry ``fields``."""
    if not isinstance(data, dict):
        raise ValueError(f"a workload spec is an object, got {type(data).__name__}")
    rows = data.get(key, [])
    if not (isinstance(rows, list)
            and all(isinstance(r, dict) and all(f in r for f in fields) for r in rows)):
        raise ValueError(f"a workload spec's {key!r} is a list of objects with "
                         f"{', '.join(fields)}")
    return rows


class WorkloadSpec:
    """A population plus its ordered membership events."""

    def __init__(
        self,
        population: Optional[Iterable[ReceiverSpec]] = None,
        events: Optional[Iterable[WorkloadEvent]] = None,
    ):
        self.population: List[ReceiverSpec] = list(population or [])
        self.events: List[WorkloadEvent] = sorted(events or [], key=_event_key)
        self._by_id: Dict[Any, ReceiverSpec] = {}
        for rs in self.population:
            if rs.receiver_id in self._by_id:
                raise ValueError(f"duplicate receiver id {rs.receiver_id!r}")
            self._by_id[rs.receiver_id] = rs

    # ------------------------------------------------------------------
    # Population / event construction
    # ------------------------------------------------------------------
    def add_receiver(
        self,
        receiver_id: Any,
        node: Any,
        session_id: Any,
        mode: str = "controlled",
        controller: str = "default",
    ) -> "WorkloadSpec":
        """Add one parked population member; returns self for chaining."""
        rs = ReceiverSpec(receiver_id, node, session_id, mode, controller)
        if rs.receiver_id in self._by_id:
            raise ValueError(f"duplicate receiver id {rs.receiver_id!r}")
        self.population.append(rs)
        self._by_id[rs.receiver_id] = rs
        return self

    def receiver_ids(self) -> List[Any]:
        """Population ids in insertion order."""
        return [rs.receiver_id for rs in self.population]

    def add(self, time: float, kind: str, receiver_id: Any) -> "WorkloadSpec":
        """Append an event (kept sorted); the receiver must be known."""
        self._extend([WorkloadEvent(time, kind, receiver_id)])
        return self

    def _extend(self, events: Iterable[WorkloadEvent]) -> None:
        """Batch-append events with a single re-sort (builders emit 10^4+
        events; sorting per event would be quadratic)."""
        events = list(events)
        for ev in events:
            if ev.receiver_id not in self._by_id:
                raise ValueError(
                    f"unknown receiver {ev.receiver_id!r} (add_receiver first)"
                )
        self.events.extend(events)
        self.events.sort(key=_event_key)

    def join(self, time: float, receiver_id: Any) -> "WorkloadSpec":
        return self.add(time, "join", receiver_id)

    def leave(self, time: float, receiver_id: Any) -> "WorkloadSpec":
        return self.add(time, "leave", receiver_id)

    # ------------------------------------------------------------------
    # Seeded builders (randomness consumed here, at build time)
    # ------------------------------------------------------------------
    def zipf_sessions(
        self,
        receiver_ids: Sequence[Any],
        nodes: Sequence[Any],
        session_ids: Sequence[Any],
        zipf_s: float = 1.1,
        seed: int = 0,
        mode: str = "controlled",
        controller: str = "default",
    ) -> "WorkloadSpec":
        """Populate receivers round-robin over ``nodes``, each picking its
        session by a seeded Zipf(``zipf_s``) popularity draw over
        ``session_ids`` (earlier sessions are more popular)."""
        if not nodes:
            raise ValueError("need at least one node to place receivers on")
        pairs = assign_sessions(receiver_ids, session_ids, zipf_s=zipf_s, seed=seed)
        for i, (rid, sid) in enumerate(pairs):
            self.add_receiver(rid, nodes[i % len(nodes)], sid,
                              mode=mode, controller=controller)
        return self

    def flash_crowd(
        self,
        at: float,
        size: int,
        ramp: float = 2.0,
        shape: str = "linear",
        seed: int = 0,
    ) -> "WorkloadSpec":
        """The whole population joins inside ``[at, at + ramp)``, in
        insertion order.  ``size`` must be the population's size: a crowd
        of any other size raises.
        """
        pool = self.receiver_ids()
        if size != len(pool):
            raise ValueError(
                f"flash crowd of {size} is not the receiver pool ({len(pool)})"
            )
        times = flash_crowd_times(size, at, ramp=ramp, shape=shape, seed=seed)
        self._extend(
            WorkloadEvent(t, "join", rid) for t, rid in zip(times, pool)
        )
        return self

    def diurnal_churn(
        self,
        start: float,
        end: float,
        period: float = 120.0,
        peak_rate: float = 0.5,
        trough_rate: float = 0.05,
        off_time: Tuple[float, float] = (4.0, 12.0),
        seed: int = 0,
    ) -> "WorkloadSpec":
        """Day/night departure waves over ``[start, end)``.

        Wave instants come from a sinusoidal-rate Poisson process (see
        :func:`~repro.workloads.builders.diurnal_leave_times`); each wave
        picks one receiver of the population uniformly to leave and rejoin
        after a uniform ``off_time`` draw, mirroring ``membership_churn``'s
        leave/rejoin convention.
        """
        pool = self.receiver_ids()
        if not pool:
            raise ValueError("need at least one receiver to churn")
        lo, hi = off_time
        if not 0 < lo <= hi:
            raise ValueError("off_time must be (lo, hi) with 0 < lo <= hi")
        waves = diurnal_leave_times(start, end, period=period,
                                    peak_rate=peak_rate,
                                    trough_rate=trough_rate, seed=seed)
        rng = Pcg64(seed + 1)
        batch: List[WorkloadEvent] = []
        for t in waves:
            rid = pool[rng.integers(len(pool))]
            batch.append(WorkloadEvent(t, "leave", rid))
            back = t + rng.uniform(lo, hi)
            if back < end:
                batch.append(WorkloadEvent(round(back, 6), "join", rid))
        self._extend(batch)
        return self

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON-friendly) for storage/replay."""
        return {
            "population": [
                {"receiver_id": rs.receiver_id, "node": rs.node,
                 "session_id": rs.session_id, "mode": rs.mode,
                 "controller": rs.controller}
                for rs in self.population
            ],
            "events": [
                {"time": ev.time, "kind": ev.kind,
                 "receiver_id": ev.receiver_id}
                for ev in self.events
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output.  A wrong shape, or an
        event for a receiver not in the population, is a ValueError."""
        population = _rows(data, "population", ("receiver_id", "node", "session_id"))
        events = _rows(data, "events", ("time", "kind", "receiver_id"))
        if not all(isinstance(row["time"], (int, float)) for row in events):
            raise ValueError("a workload event's time is a number")
        spec = cls(
            ReceiverSpec(
                row["receiver_id"], row["node"], row["session_id"],
                row.get("mode", "controlled"),
                row.get("controller", "default"),
            )
            for row in population
        )
        spec._extend(
            WorkloadEvent(float(row["time"]), row["kind"], row["receiver_id"])
            for row in events
        )
        return spec

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[WorkloadEvent]:
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WorkloadSpec {len(self.population)} receivers, "
            f"{len(self.events)} events>"
        )
