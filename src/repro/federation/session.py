"""Lockstep execution of domain shards with barrier-time summary exchange.

A :class:`FederatedSession` owns one :class:`~repro.federation.shard.
DomainShard` per domain plus the root :class:`~repro.federation.coordinator.
FederationCoordinator`, and advances everything in rounds of ``cadence``
simulated seconds:

1. federation fault events due by the barrier fire (channel impairments,
   domain partitions, coordinator crash/failover — see
   :class:`~repro.faults.injectors.FederationInjector`);
2. every shard simulates independently up to the round barrier, one
   after another in sorted-domain order (``_advance_shards`` — the single
   seam an out-of-process backend would plug into);
3. at the barrier each shard publishes one
   :class:`~repro.control.messages.SubtreeSummary` per session over the
   session's :class:`~repro.federation.channel.InterDomainChannel` — the
   one wire in both directions, perfect unless impaired — with up to
   :data:`RETRY_LIMIT` attempts per summary (every attempt is charged to the
   summary byte tier; exhaustion counts as an exchange timeout);
4. the coordinator (if alive) merges them (sorted order) into per-session
   :class:`~repro.control.messages.FederationAdvice` fanned back out to
   every shard, fenced by epoch/round on arrival;
5. each shard rolls its bounded-staleness state: advice ages while a
   domain is dark, and past the budget the shard conservatively decays its
   controller's session ceiling.

Determinism model: there is one execution path.  Shards share no mutable
state (``test_shards_advance_as_if_alone`` runs each shard alone and
compares) and draw from seeds derived per domain name, so each shard's
trajectory up to a barrier is a pure function
of ``(federation seed, its view, cadence schedule, advice delivered so
far)`` — running a shard alone gives the trajectory it has inside the
federation.  All cross-shard work (steps 1, 3–5) happens after the barrier
in sorted-domain order; the channel draws from per-``(domain, direction)``
streams in that same order.  Two runs of one seed therefore produce
identical summaries, advice, fault behaviour and per-shard results; the
only things allowed to differ are wall-clock profiler laps.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from ..control.messages import ADVICE_SIZE, SUMMARY_SIZE, SubtreeSummary
from .channel import InterDomainChannel
from .coordinator import FederationCoordinator
from .shard import DomainShard, DomainView

__all__ = ["FederatedSession"]

#: Notional backoff before the first summary retry, doubling per attempt
#: (reported on ``federation.retry``; the lockstep exchange does not wait).
RETRY_BACKOFF_S = 0.1
#: Send attempts per summary per round before it counts as a timeout.
RETRY_LIMIT = 3


class FederatedSession:
    """Run a set of domain views as a federated control plane."""

    def __init__(
        self,
        views: Sequence[DomainView],
        seed: int = 0,
        cadence: float = 4.0,
        bus: Optional[Any] = None,
        profiler: Optional[Any] = None,
        plan: Optional[Any] = None,
        staleness_budget: int = 2,
    ):
        if cadence <= 0:
            raise ValueError("cadence must be positive")
        if not views:
            raise ValueError("need at least one domain view")
        ordered = sorted(views, key=lambda v: str(v.domain))
        names = [str(v.domain) for v in ordered]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate domain names: {names}")
        self.cadence = float(cadence)
        self.bus = bus
        self.profiler = profiler
        self.shards: Dict[str, DomainShard] = {
            str(v.domain): DomainShard(
                v, seed=seed, staleness_budget=staleness_budget,
            )
            for v in ordered
        }
        self.coordinator = FederationCoordinator(bus=bus)
        #: Deposed coordinators (kept so cross-generation counters and the
        #: advice byte tier survive a failover).
        self._retired: List[FederationCoordinator] = []
        #: Round numbers at which a failover fired (the recovery gate's
        #: reference points).
        self.failover_rounds: List[int] = []
        #: The one wire between shards and coordinator; perfect until a
        #: plan event (or a caller) impairs it.
        self.channel = InterDomainChannel(seed=seed)
        self._injector: Optional[Any] = None
        self._plan_events: List[Any] = []
        self._next_event = 0
        if plan is not None:
            from ..faults.injectors import FederationInjector, kinds_of

            self._injector = FederationInjector(self)
            self._plan_events = list(plan.events)
            for ev in self._plan_events:
                if ev.kind not in kinds_of(FederationInjector):
                    raise ValueError(
                        f"FederatedSession plans accept fed_* kinds only, "
                        f"got {ev.kind!r} (apply scenario-level faults "
                        f"inside a shard, not at the federation tier)"
                    )
        self.rounds_completed = 0
        self.now = 0.0

    # ------------------------------------------------------------------
    @property
    def n_domains(self) -> int:
        return len(self.shards)

    @property
    def receivers(self) -> List[Any]:
        """All receiver handles across shards, sorted-domain order."""
        out: List[Any] = []
        for name in sorted(self.shards):
            out.extend(self.shards[name].scenario.receivers)
        return out

    @property
    def events_processed(self) -> int:
        return sum(
            s.scenario.sched.events_processed for s in self.shards.values()
        )

    @property
    def fault_log(self) -> List[Any]:
        """(time, kind, detail) entries of fired federation fault events."""
        return [] if self._injector is None else self._injector.log

    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance the federation ``duration`` simulated seconds."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        end = self.now + duration
        while self.now < end:
            target = min(self.now + self.cadence, end)
            self._fire_faults(target)
            self._advance_shards(target)
            self._exchange(target, self.rounds_completed + 1)
            self.rounds_completed += 1
            if self.bus is not None:
                self.bus.emit(
                    "federation.round", target,
                    round=self.rounds_completed,
                    domains=self.n_domains,
                    summaries=self.coordinator.tracked(),
                )
            self.now = target

    # ------------------------------------------------------------------
    def _fire_faults(self, target: float) -> None:
        """Fire plan events due by ``target`` (start of this round).

        An event takes effect at the first round barrier whose time reaches
        it: an event at ``k * cadence`` governs round ``k``'s exchange.
        """
        if self._injector is None:
            return
        self._injector.clock = target
        while (
            self._next_event < len(self._plan_events)
            and self._plan_events[self._next_event].time <= target
        ):
            ev = self._plan_events[self._next_event]
            self._next_event += 1
            self._injector.execute(ev.kind, ev.args, ev.kwargs)

    def _advance_shards(self, target: float) -> None:
        prof = self.profiler
        t0 = t = perf_counter()
        for name in sorted(self.shards):
            self.shards[name].run_to(target)
            if prof is not None:
                t = prof.lap(f"fed.shard.{name}", t)
        if prof is not None:
            prof.add("fed.round", t - t0)

    # ------------------------------------------------------------------
    def _exchange(self, now: float, round_no: int) -> None:
        """Barrier-time summary/advice exchange, in sorted-domain order."""
        t0 = perf_counter()
        ch = self.channel
        # Delayed copies from earlier rounds arrive first; epoch/round
        # fencing decides whether they still carry news.
        for direction, domain, msg in ch.due(round_no):
            if direction == "up":
                if self.coordinator.alive:
                    self.coordinator.receive(msg)
                else:
                    ch.stats["dead_coordinator_drops"] += 1
            else:
                shard = self.shards.get(domain)
                if shard is not None:
                    shard.deliver_advice(msg, now=now, bus=self.bus)
        for name in sorted(self.shards):
            shard = self.shards[name]
            for summary in shard.summaries(now, round_no=round_no):
                self._send_summary(shard, summary, now, round_no)
        if self.coordinator.alive:
            advices = self.coordinator.merge(now, round_no=round_no)
            for advice in advices:
                for name in sorted(self.shards):
                    self.coordinator.control_bytes_sent += ADVICE_SIZE
                    if ch.send_down(name, advice, round_no) == "delivered":
                        self.shards[name].deliver_advice(
                            advice, now=now, bus=self.bus
                        )
        for name in sorted(self.shards):
            self.shards[name].roll_staleness(round_no, now, bus=self.bus)
        if self.profiler is not None:
            self.profiler.add("fed.exchange", perf_counter() - t0)

    def _send_summary(
        self, shard: DomainShard, summary: SubtreeSummary,
        now: float, round_no: int,
    ) -> None:
        """Push one summary upward, retrying with (notional) backoff.

        The first attempt's bytes were charged by ``shard.summaries``;
        every retry charges another ``SUMMARY_SIZE`` so the byte tiers
        reflect what a lossy channel really costs.  An attempt is
        acknowledged only when a live coordinator takes delivery — loss,
        in-flight delay, a partition or a dead coordinator all look the
        same to the sender: silence, then retry, then timeout.
        """
        domain = str(shard.domain)
        for attempt in range(1, RETRY_LIMIT + 1):
            if attempt > 1:
                shard.summary_bytes_sent += SUMMARY_SIZE
                shard.summary_retries += 1
                if self.bus is not None:
                    self.bus.emit(
                        "federation.retry", now,
                        domain=shard.domain, session=summary.session_id,
                        attempt=attempt,
                        backoff_s=RETRY_BACKOFF_S * 2 ** (attempt - 2),
                    )
            outcome = self.channel.send_up(domain, summary, round_no)
            if outcome == "delivered":
                if self.coordinator.alive:
                    self.coordinator.receive(summary)
                    return
                self.channel.stats["dead_coordinator_drops"] += 1
        shard.summary_timeouts += 1
        if self.bus is not None:
            self.bus.emit(
                "federation.timeout", now,
                domain=shard.domain, session=summary.session_id,
                attempts=RETRY_LIMIT,
            )

    # ------------------------------------------------------------------
    # Coordinator lifecycle (driven by fed_coordinator_* fault events)
    # ------------------------------------------------------------------
    def crash_coordinator(self) -> None:
        """Kill the coordinator: no merges, no acks, until failover."""
        self.coordinator.alive = False

    def failover_coordinator(self) -> FederationCoordinator:
        """Promote a standby coordinator with a bumped fencing epoch.

        The standby resumes from the replicated per-(session, domain)
        summary store — the coordinator's only durable state — and starts
        at ``deposed.epoch + 1`` so shards reject anything the deposed
        coordinator still has in flight.
        """
        old = self.coordinator
        old.alive = False
        standby = FederationCoordinator(bus=self.bus, epoch=old.epoch + 1)
        standby.resume_from(old.replicated_summaries())
        self._retired.append(old)
        self.coordinator = standby
        self.failover_rounds.append(self.rounds_completed + 1)
        if self.bus is not None:
            self.bus.emit(
                "federation.failover", self.now,
                old_epoch=old.epoch, new_epoch=standby.epoch,
                resumed=standby.tracked(),
                round=self.rounds_completed + 1,
            )
        return standby

    def coordinator_totals(self) -> Dict[str, Any]:
        """Counters aggregated across coordinator generations."""
        coords = self._retired + [self.coordinator]
        return {
            "generations": len(coords),
            "epoch": self.coordinator.epoch,
            "alive": self.coordinator.alive,
            "summaries_received": sum(c.summaries_received for c in coords),
            "type_rejected": sum(c.type_rejected for c in coords),
            "stale_rejected": sum(c.stale_rejected for c in coords),
            "merges": sum(c.merges for c in coords),
            "peak_tracked": max(c.peak_tracked for c in coords),
            "state_bytes": self.coordinator.state_bytes(),
        }

    # ------------------------------------------------------------------
    def control_bytes_by_tier(self) -> Dict[str, int]:
        """Control-plane bytes split by tier.

        * ``intra_domain`` — receivers <-> their domain controller (scales
          with receivers);
        * ``summary`` — shards -> coordinator (scales with domains ×
          sessions × rounds, plus one ``SUMMARY_SIZE`` per retry);
        * ``advice`` — coordinator -> shards (across coordinator
          generations when a failover occurred).
        """
        intra = sum(
            self.shards[name].control_bytes_intra()
            for name in sorted(self.shards)
        )
        summary = sum(
            self.shards[name].summary_bytes_sent
            for name in sorted(self.shards)
        )
        advice = sum(
            c.control_bytes_sent for c in self._retired + [self.coordinator]
        )
        return {
            "intra_domain": int(intra),
            "summary": int(summary),
            "advice": int(advice),
        }

    def control_bytes_total(self) -> int:
        return sum(self.control_bytes_by_tier().values())

