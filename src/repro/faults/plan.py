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

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["FaultEvent", "FaultPlan"]

#: Event kinds understood by :class:`~repro.faults.injectors.FaultInjector`.
KINDS = (
    "link_down",
    "link_up",
    "link_degrade",
    "link_restore",
    "node_crash",
    "node_recover",
    "controller_kill",
    "controller_restart",
    "controller_failover",
    "discovery_blackout",
    "discovery_truncate",
    "discovery_restore",
    "byzantine_start",
    "byzantine_stop",
    "control_corrupt",
    "control_restore",
    "receiver_leave",
    "receiver_join",
    # Federation-tier faults, executed by a FederationInjector bound to a
    # FederatedSession at round barriers (not by the scenario-level
    # FaultInjector).
    "fed_link_degrade",
    "fed_link_restore",
    "fed_partition",
    "fed_heal",
    "fed_coordinator_kill",
    "fed_coordinator_failover",
)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault action (``kind`` names an injector operation)."""

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
    """An ordered collection of fault events with builder conveniences."""

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

    # -- links ----------------------------------------------------------
    def link_down(self, time: float, a: Any, b: Any) -> "FaultPlan":
        return self.add(time, "link_down", a, b)

    def link_up(self, time: float, a: Any, b: Any) -> "FaultPlan":
        return self.add(time, "link_up", a, b)

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
            self.link_down(t0, a, b)
            self.link_up(t0 + down_for, a, b)
        return self

    def degrade_link(self, time: float, a: Any, b: Any, factor: float) -> "FaultPlan":
        return self.add(time, "link_degrade", a, b, factor)

    def restore_link(self, time: float, a: Any, b: Any) -> "FaultPlan":
        return self.add(time, "link_restore", a, b)

    # -- nodes ----------------------------------------------------------
    def crash_node(self, time: float, name: Any) -> "FaultPlan":
        return self.add(time, "node_crash", name)

    def recover_node(self, time: float, name: Any) -> "FaultPlan":
        return self.add(time, "node_recover", name)

    # -- controller -----------------------------------------------------
    def crash_controller(self, time: float, name: str = "default") -> "FaultPlan":
        return self.add(time, "controller_kill", name=name)

    def restart_controller(self, time: float, name: str = "default") -> "FaultPlan":
        return self.add(time, "controller_restart", name=name)

    def failover_controller(
        self, time: float, name: str = "default", cold: bool = True
    ) -> "FaultPlan":
        return self.add(time, "controller_failover", name=name, cold=cold)

    # -- discovery ------------------------------------------------------
    def discovery_outage(
        self,
        start: float,
        end: float,
        name: str = "default",
        mode: str = "timeout",
        depth: int = 1,
    ) -> "FaultPlan":
        """Discovery fails over ``[start, end)``: ``mode="timeout"`` makes
        queries raise, ``mode="truncate"`` clips trees to ``depth`` hops."""
        if end <= start:
            raise ValueError("need end > start")
        if mode == "timeout":
            self.add(start, "discovery_blackout", name=name)
        elif mode == "truncate":
            self.add(start, "discovery_truncate", name=name, depth=depth)
        else:
            raise ValueError(f"unknown discovery outage mode {mode!r}")
        return self.add(end, "discovery_restore", name=name)

    # -- membership -----------------------------------------------------
    def leave_receiver(self, time: float, receiver_id: Any) -> "FaultPlan":
        """The receiver departs (agent stops, subscription drops to 0)."""
        return self.add(time, "receiver_leave", receiver_id)

    def join_receiver(self, time: float, receiver_id: Any) -> "FaultPlan":
        """The receiver (re)arrives with a fresh control agent."""
        return self.add(time, "receiver_join", receiver_id)

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
        ``default_rng(seed)``: the emitted plan is a concrete, ordered list
        of ``receiver_leave``/``receiver_join`` events that round-trips
        through JSON and replays identically, like every other fault kind.

        The draw itself lives in :func:`repro.experiments.membership.
        churn_events`, shared with the workload engine so both paths use
        identical RNG semantics.
        """
        # Local import: repro.experiments pulls in the whole scenario stack.
        from ..experiments.membership import churn_events

        for kind, t, rid in churn_events(
            receivers, start, end, rate=rate, burst=burst,
            off_time=off_time, zipf_s=zipf_s, seed=seed,
        ):
            if kind == "leave":
                self.leave_receiver(t, rid)
            else:
                self.join_receiver(t, rid)
        return self

    # -- adversaries ----------------------------------------------------
    def byzantine(self, time: float, receiver_id: Any, mode: str) -> "FaultPlan":
        """Turn the receiver byzantine: ``mode`` is ``lie_high``,
        ``lie_low``, ``disobey`` or a ``+``-joined combination."""
        return self.add(time, "byzantine_start", receiver_id, mode)

    def stop_byzantine(self, time: float, receiver_id: Any) -> "FaultPlan":
        """Restore the receiver to honest behaviour."""
        return self.add(time, "byzantine_stop", receiver_id)

    def corrupt_control(
        self, time: float, node: Any, mode: str = "garble", rate: float = 1.0
    ) -> "FaultPlan":
        """Corrupt CONTROL packets originated at ``node``: ``mode`` is
        ``duplicate``, ``reorder`` or ``garble``; ``rate`` is the per-packet
        corruption probability."""
        return self.add(time, "control_corrupt", node, mode=mode, rate=rate)

    def restore_control(self, time: float, node: Any) -> "FaultPlan":
        """Stop corrupting CONTROL packets originated at ``node``."""
        return self.add(time, "control_restore", node)

    # -- federation tier ------------------------------------------------
    def degrade_federation(
        self,
        time: float,
        loss: float = 0.0,
        duplicate: float = 0.0,
        delay_rounds: int = 0,
        domain: Optional[Any] = None,
    ) -> "FaultPlan":
        """Impair the inter-domain channel (all domains, or just one):
        per-message loss/duplication probabilities and a maximum in-flight
        delay in lockstep rounds.  Takes effect at the first round barrier
        reaching ``time``."""
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        if not 0.0 <= duplicate <= 1.0:
            raise ValueError(f"duplicate must be in [0, 1], got {duplicate}")
        if delay_rounds < 0:
            raise ValueError(f"delay_rounds must be >= 0, got {delay_rounds}")
        return self.add(
            time, "fed_link_degrade", loss=loss, duplicate=duplicate,
            delay_rounds=delay_rounds, domain=domain,
        )

    def restore_federation(
        self, time: float, domain: Optional[Any] = None
    ) -> "FaultPlan":
        """Undo :meth:`degrade_federation` for one domain (or the mesh)."""
        return self.add(time, "fed_link_restore", domain=domain)

    def partition_domain(self, time: float, domain: Any) -> "FaultPlan":
        """Cut the domain off from the federation in both directions."""
        return self.add(time, "fed_partition", domain)

    def heal_domain(self, time: float, domain: Any) -> "FaultPlan":
        """Reconnect a partitioned domain."""
        return self.add(time, "fed_heal", domain)

    def partition_window(
        self, start: float, end: float, domain: Any
    ) -> "FaultPlan":
        """Partition the domain over ``[start, end)``."""
        if end <= start:
            raise ValueError("need end > start")
        return self.partition_domain(start, domain).heal_domain(end, domain)

    def kill_coordinator(self, time: float) -> "FaultPlan":
        """Crash the federation coordinator (no merges, no acks)."""
        return self.add(time, "fed_coordinator_kill")

    def failover_coordinator(self, time: float) -> "FaultPlan":
        """Promote the standby coordinator (bumped epoch, warm summary
        store) — clears a preceding :meth:`kill_coordinator`."""
        return self.add(time, "fed_coordinator_failover")

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, scenario, injector=None):
        """Schedule every event on ``scenario``'s scheduler.

        Returns the bound :class:`~repro.faults.injectors.FaultInjector`
        (pass one in to accumulate a shared log across plans).  Events in
        the past relative to the scenario clock are rejected — apply the
        plan before running.
        """
        from .injectors import FaultInjector  # local import: avoid cycle

        if injector is None:
            injector = FaultInjector(scenario)
        now = scenario.sched.now
        for ev in self.events:
            if ev.time < now:
                raise ValueError(
                    f"fault event at t={ev.time} is in the past (now={now})"
                )
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
    def from_dicts(cls, rows: Iterable[dict]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dicts` output."""
        return cls(
            FaultEvent(
                float(row["time"]),
                row["kind"],
                tuple(row.get("args", ())),
                dict(row.get("kwargs", {})),
            )
            for row in rows
        )

    # ------------------------------------------------------------------
    #: clearing kind -> kinds that re-break the same target.
    _BREAKERS = {
        "link_up": ("link_down",),
        "link_restore": ("link_degrade",),
        "node_recover": ("node_crash",),
        "controller_restart": ("controller_kill",),
        "controller_failover": ("controller_kill",),
        "discovery_restore": ("discovery_blackout", "discovery_truncate"),
        "byzantine_stop": ("byzantine_start",),
        "control_restore": ("control_corrupt",),
        "receiver_join": ("receiver_leave",),
        "fed_link_restore": ("fed_link_degrade",),
        "fed_heal": ("fed_partition",),
        "fed_coordinator_failover": ("fed_coordinator_kill",),
    }

    @staticmethod
    def _target(ev: FaultEvent):
        """The entity an event acts on (link endpoints / node / name)."""
        if ev.kind.startswith("link"):
            return tuple(ev.args[:2])
        if ev.kind.startswith("fed_link"):
            return ev.kwargs.get("domain")
        if ev.kind.startswith("fed_coordinator"):
            return "coordinator"
        if ev.args:
            return ev.args[0]
        return ev.kwargs.get("name", "default")

    def clear_times(self, final_only: bool = True) -> List[float]:
        """Times at which an injected fault is cleared (repair events).

        Used by recovery metrics: "recovered within N control intervals of
        the fault clearing".  A standby takeover counts as clearing the
        controller crash; degrade/restore pairs clear at the restore.

        With ``final_only`` (default) a clearing event is skipped when a
        later event in the plan re-breaks the same target — the mid-cycle
        ``link_up`` of a flap is not a real clear; only the last one is.
        """
        times = []
        for i, ev in enumerate(self.events):
            breakers = self._BREAKERS.get(ev.kind)
            if breakers is None:
                continue
            if final_only:
                target = self._target(ev)
                rebroken = any(
                    later.kind in breakers and self._target(later) == target
                    for later in self.events[i + 1 :]
                )
                if rebroken:
                    continue
            times.append(ev.time)
        return times

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan {len(self.events)} events>"
