"""Declarative fault plans: timed fault events, replayable and serialisable.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records.  It
knows nothing about the simulator until :meth:`FaultPlan.apply` binds it to a
scenario: every event is then scheduled on the scenario's event scheduler
and executed by a :class:`~repro.faults.injectors.FaultInjector` at its
simulated time.  Plans built from the same arguments therefore replay
identically — determinism comes from the discrete-event scheduler, exactly
as for traffic.

Plans round-trip through plain dicts (:meth:`to_dicts` / :meth:`from_dicts`)
so chaos runs can be stored as JSON and replayed by
``python -m repro chaos --save-plan`` / ``--plan``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..experiments.membership import churn_events
from .injectors import FaultInjector, FederationInjector, kinds_of

__all__ = ["FaultEvent", "FaultPlan"]

#: The kinds a :class:`FaultInjector` runs on a scenario.
_SCENARIO_KINDS = kinds_of(FaultInjector)
#: Every fault kind: one injector method each (see :func:`kinds_of`).
KINDS = _SCENARIO_KINDS + kinds_of(FederationInjector)


@lru_cache(maxsize=None)
def _signature(kind: str) -> inspect.Signature:
    return inspect.signature(getattr(FaultInjector, kind))


def _check(event: "FaultEvent", scenario: Any) -> None:
    """Raise ValueError unless the event's arguments bind to its scenario
    injector method and the link, receiver or controller it names exists
    (a failover's controller with a standby node)."""
    kind = event.kind
    if kind not in _SCENARIO_KINDS:
        raise ValueError(f"{kind!r} is not a scenario fault kind")
    try:
        bound = _signature(kind).bind(None, *event.args, **event.kwargs)
    except TypeError as exc:
        raise ValueError(f"{kind} {list(event.args)} {event.kwargs}: {exc}") from None
    bound.apply_defaults()
    arguments = bound.arguments
    network = scenario.network
    if kind.startswith("link_"):
        a, b = arguments["a"], arguments["b"]
        if (a, b) not in network.links:
            raise ValueError(f"{kind}: no link {a!r} -> {b!r}")
    elif "receiver_id" in arguments:
        receiver_id = arguments["receiver_id"]
        try:
            scenario.receiver_handle(receiver_id)
        except KeyError as exc:
            raise ValueError(f"{kind}: {exc.args[0]}") from None
        except TypeError:
            # A JSON list or object is no receiver id (it is unhashable).
            raise ValueError(f"{kind}: unknown receiver {receiver_id!r}") from None
    elif "name" in arguments:
        name = arguments["name"]
        if not isinstance(name, str) or name not in scenario.controllers:
            raise ValueError(f"{kind}: unknown controller {name!r}")
        if kind == "controller_failover" and scenario.standby_node(name) is None:
            raise ValueError(f"{kind}: controller {name!r} has no standby node")


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault action: ``kind`` names the injector method that runs
    it, ``args``/``kwargs`` are that method's arguments."""

    time: float
    kind: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


class FaultPlan:
    """An ordered collection of fault events.

    :meth:`add` appends one event of any kind; the builders below expand
    into several (a flap, an outage window, a churn storm, a partition).
    """

    def __init__(self, events: Optional[Iterable[FaultEvent]] = None):
        self.events: List[FaultEvent] = sorted(
            events or [], key=lambda e: (e.time, e.kind)
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, time: float, kind: str, *args: Any, **kwargs: Any) -> "FaultPlan":
        """Append an event (kept time-sorted); returns self for chaining."""
        self.events.append(FaultEvent(time, kind, tuple(args), dict(kwargs)))
        self.events.sort(key=lambda e: (e.time, e.kind))
        return self

    def link_flap(
        self,
        time: float,
        a: Any,
        b: Any,
        down_for: float = 2.0,
        times: int = 2,
        period: Optional[float] = None,
    ) -> "FaultPlan":
        """``times`` down/up cycles starting at ``time``: down for
        ``down_for`` seconds, one cycle every ``period`` (default
        ``2 * down_for``) seconds."""
        if times < 1:
            raise ValueError("need at least one flap")
        if down_for <= 0:
            raise ValueError("down_for must be positive")
        period = 2.0 * down_for if period is None else period
        if period < down_for:
            raise ValueError("period must cover the down time")
        for i in range(times):
            t0 = time + i * period
            self.add(t0, "link_down", a, b)
            self.add(t0 + down_for, "link_up", a, b)
        return self

    def discovery_outage(
        self, start: float, end: float, name: str = "default"
    ) -> "FaultPlan":
        """Discovery queries time out over ``[start, end)``."""
        if end <= start:
            raise ValueError("need end > start")
        return self.add(start, "discovery_blackout", name=name).add(
            end, "discovery_restore", name=name)

    def membership_churn(
        self,
        receivers: Sequence[Any],
        start: float,
        end: float,
        rate: float = 0.1,
        burst: int = 1,
        off_time: Tuple[float, float] = (4.0, 12.0),
        zipf_s: float = 1.1,
        seed: int = 0,
    ) -> "FaultPlan":
        """Seeded join/leave waves over ``[start, end)``.

        Leave waves arrive as a Poisson process of mean ``rate`` waves per
        second; each wave picks ``burst`` receivers (with a Zipf(``zipf_s``)
        bias over ``receivers``'s order, so a few receivers churn far more
        than the rest) to depart, each rejoining after a uniform draw from
        ``off_time`` seconds.  Randomness is consumed *here*, from a private
        ``Pcg64(seed)``: the emitted plan is a concrete, ordered list
        of ``receiver_leave``/``receiver_join`` events that round-trips
        through JSON and replays identically, like every other fault kind.

        The draw itself lives in :func:`repro.experiments.membership.
        churn_events`, shared with the workload engine so both paths use
        identical RNG semantics.
        """
        for kind, t, rid in churn_events(
            receivers, start, end, rate=rate, burst=burst,
            off_time=off_time, zipf_s=zipf_s, seed=seed,
        ):
            self.add(t, f"receiver_{kind}", rid)
        return self

    def partition_window(
        self, start: float, end: float, domain: Any
    ) -> "FaultPlan":
        """Partition the domain over ``[start, end)``."""
        if end <= start:
            raise ValueError("need end > start")
        return self.add(start, "fed_partition", domain).add(end, "fed_heal", domain)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, scenario):
        """Schedule every event on ``scenario``'s scheduler.

        Returns the bound :class:`~repro.faults.injectors.FaultInjector`;
        experiments call it only through
        :func:`~repro.experiments.scenario.run_plan`.  Events in the past
        relative to the scenario clock are rejected — apply the plan before
        running — and so is an event whose arguments do not fit its kind's
        injector method or that names a link, receiver or controller the
        scenario lacks, so a plan read from a file fails here and not when the
        event fires.
        """
        now = scenario.sched.now
        # Check every event before scheduling any, so a plan that fails
        # leaves nothing behind on the scheduler.
        for ev in self.events:
            if ev.time < now:
                raise ValueError(
                    f"fault event at t={ev.time} is in the past (now={now})"
                )
            _check(ev, scenario)
        injector = FaultInjector(scenario)
        for ev in self.events:
            scenario.sched.at(ev.time, injector.execute, ev.kind, ev.args, ev.kwargs)
        return injector

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[dict]:
        """Plain-dict form (JSON-friendly) for storage/replay."""
        return [
            {"time": ev.time, "kind": ev.kind, "args": list(ev.args),
             "kwargs": dict(ev.kwargs)}
            for ev in self.events
        ]

    @classmethod
    def from_dicts(cls, rows: List[dict]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dicts` output; anything but a list
        of ``{"time", "kind", "args", "kwargs"}`` objects is a ValueError."""
        if not isinstance(rows, list):
            raise ValueError(f"a fault plan is a list of events, got {type(rows).__name__}")
        events = []
        for row in rows:
            if not (isinstance(row, dict) and "kind" in row
                    and isinstance(row.get("time"), (int, float))
                    and isinstance(row.get("args", []), list)
                    and isinstance(row.get("kwargs", {}), dict)):
                raise ValueError(
                    "a fault event is {\"time\": number, \"kind\", \"args\": list, "
                    f"\"kwargs\": object}}, got {row!r}")
            events.append(FaultEvent(
                float(row["time"]),
                row["kind"],
                tuple(row.get("args", ())),
                dict(row.get("kwargs", {})),
            ))
        return cls(events)

    # ------------------------------------------------------------------
    #: clearing kind -> kinds that re-break the same target.
    _BREAKERS = {
        "link_up": ("link_down",),
        "controller_failover": ("controller_kill",),
        "discovery_restore": ("discovery_blackout",),
        "receiver_join": ("receiver_leave",),
        "fed_heal": ("fed_partition",),
        "fed_coordinator_failover": ("fed_coordinator_kill",),
    }

    @staticmethod
    def _target(ev: FaultEvent):
        """The entity an event acts on (link endpoints / receiver / name)."""
        if ev.kind.startswith("link"):
            return tuple(ev.args[:2])
        if ev.kind.startswith("fed_coordinator"):
            return "coordinator"
        if ev.args:
            return ev.args[0]
        return ev.kwargs.get("name", "default")

    def clear_times(self) -> List[float]:
        """Times at which an injected fault is cleared for good.

        Used by recovery metrics: "recovered within N control intervals of
        the fault clearing".  A standby takeover counts as clearing the
        controller crash.  A clearing event is skipped when a later event
        in the plan re-breaks the same target — the mid-cycle ``link_up``
        of a flap is not a real clear; only the last one is.
        """
        times = []
        for i, ev in enumerate(self.events):
            breakers = self._BREAKERS.get(ev.kind)
            if breakers is None:
                continue
            target = self._target(ev)
            if not any(
                later.kind in breakers and self._target(later) == target
                for later in self.events[i + 1 :]
            ):
                times.append(ev.time)
        return times

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan {len(self.events)} events>"
