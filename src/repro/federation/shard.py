"""One administrative domain as a standalone simulation slice.

A :class:`DomainView` describes one domain of the multi-domain star — its
nodes, access links, border gateway and uplink, session and receivers — and
:class:`DomainShard` rebuilds it as its own
:class:`~repro.experiments.scenario.Scenario`: own scheduler, network,
multicast trees, source, receivers and one
:class:`~repro.control.agent.ControllerAgent` at the border gateway.  The
session's media enters the domain through a synthetic border node wired to
the gateway over the uplink, standing in for the tree upstream of the
border: intra-domain bottlenecks, queues and loss are simulated as in one
global topology.  Views are built straight from the layout
(:func:`~repro.federation.experiment.build_federated_views`); delays, queue
limits and the source model are the ``Scenario`` defaults.

Shards share **no** mutable state, and each shard's root seed is the
:func:`~repro.simnet.rng.stream_seed` of ``"fed/<domain>"`` under the
federation seed, so a shard's draws depend on its own domain name only —
never on domain count, sibling domains or the order shards advance in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..control.messages import SUMMARY_SIZE, FederationAdvice, SubtreeSummary
from ..experiments.scenario import Scenario
from ..simnet.rng import stream_seed
from ..workloads.runner import control_bytes

__all__ = ["BORDER_NODE", "DomainReceiver", "DomainShard", "DomainView"]

#: Name of the synthetic border-ingress node every shard adds; the real
#: source lives outside the domain, this node replays its traffic into the
#: domain through the border uplink.
BORDER_NODE = "__border__"

#: Staleness decay never pushes a session's effective ceiling below this
#: level: a dark domain keeps its base layer.
DECAY_FLOOR = 1


@dataclass(frozen=True)
class DomainReceiver:
    """One receiver placement inside the domain, in creation order."""

    receiver_id: Any
    session_id: Any
    node: Any


@dataclass(frozen=True)
class DomainView:
    """Everything one domain shard needs to rebuild its domain."""

    domain: str
    nodes: Tuple[Any, ...]
    #: Intra-domain links as ``(a, b, bandwidth)``, one per node pair.
    links: Tuple[Tuple[Any, Any, float], ...]
    gateway: Any
    uplink_bandwidth: float
    sessions: Tuple[Any, ...]
    receivers: Tuple[DomainReceiver, ...]

    @property
    def receiver_count(self) -> int:
        return len(self.receivers)


class DomainShard:
    """Run one domain's controller + simnet slice in lockstep rounds."""

    def __init__(
        self,
        view: DomainView,
        seed: int = 0,
        staleness_budget: int = 2,
    ):
        if view.gateway == BORDER_NODE or BORDER_NODE in view.nodes:
            raise ValueError(f"domain may not contain the reserved node "
                             f"{BORDER_NODE!r}")
        if staleness_budget < 0:
            raise ValueError("staleness_budget must be >= 0")
        self.view = view
        self.domain = view.domain
        self.seed = stream_seed(seed, f"fed/{view.domain}")
        self.advice: Dict[Any, FederationAdvice] = {}
        self.advice_received = 0
        #: SubtreeSummary bytes this shard sent upward (federation tier),
        #: including retry attempts on a lossy channel.
        self.summary_bytes_sent = 0
        #: Advice age (rounds) a session may run on before the ceiling
        #: starts to decay; the bounded-staleness budget.
        self.staleness_budget = int(staleness_budget)
        #: Highest coordinator epoch whose advice this shard accepted.
        self.advice_epoch = 0
        #: Advice dropped by fencing (deposed-coordinator epoch, or an
        #: older round duplicate at the current epoch).
        self.stale_rejected = 0
        #: Summary send attempts repeated after a lost/unacked attempt.
        self.summary_retries = 0
        #: Rounds where every attempt for a summary went unacknowledged.
        self.summary_timeouts = 0
        #: (round, session) entries where the staleness decay clamped the
        #: controller below the last advised ceiling.
        self.decayed_rounds = 0
        #: Per-round staleness trace: one dict per (round, session) with
        #: the advice age, epoch and effective ceiling (None = fresh, no
        #: clamp).  The fedchaos overshoot/recovery gates read this.
        self.ceiling_log: List[Dict[str, Any]] = []
        self.scenario = self._build()

    # ------------------------------------------------------------------
    def _build(self) -> Scenario:
        view = self.view
        sc = Scenario(seed=self.seed)
        sc.add_node(BORDER_NODE)
        for name in view.nodes:
            sc.add_node(name)
        sc.add_link(BORDER_NODE, view.gateway, bandwidth=view.uplink_bandwidth)
        for a, b, bandwidth in view.links:
            sc.add_link(a, b, bandwidth=bandwidth)
        for sid in view.sessions:
            sc.add_session(BORDER_NODE, session_id=sid)
        sc.attach_controller(
            view.gateway,
            name=str(view.domain),
            domain=set(view.nodes),
        )
        for r in view.receivers:
            sc.add_receiver(
                r.session_id, r.node, receiver_id=r.receiver_id,
                controller=str(view.domain),
            )
        return sc

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.scenario.sched.now

    @property
    def controller(self) -> Any:
        return self.scenario.controllers[str(self.domain)]

    def run_to(self, t: float) -> None:
        """Advance this shard's scheduler to simulated time ``t``."""
        remaining = t - self.scenario.sched.now
        if remaining > 0:
            self.scenario.run(remaining)

    # ------------------------------------------------------------------
    def summaries(self, now: float, round_no: int) -> List[SubtreeSummary]:
        """One :class:`SubtreeSummary` per session, from controller state.

        Aggregates only: receiver identities, registrations and raw reports
        never leave the shard.  ``summary_bytes_sent`` is charged here —
        the summary is about to cross the domain boundary.
        """
        controller = self.controller
        suggested = controller.last_suggestions
        out: List[SubtreeSummary] = []
        for sid in sorted(controller.sessions, key=str):
            table = controller.receivers[sid]
            rids = sorted(table, key=str)
            reports = [r for r in (table[rid].latest for rid in rids) if r is not None]
            losses = [report.loss_rate for report in reports]
            bottleneck = min(
                (report.bytes * 8.0 / (report.t1 - report.t0)
                 for report in reports if report.t1 > report.t0),
                default=0.0,
            )
            # Last tick's suggested level per leaf; before the first tick (or
            # when it suggested nothing here), the reported subscription levels.
            levels = [
                level for (session, _leaf), level in (suggested or {}).items()
                if session == sid
            ] or [report.level for report in reports]
            out.append(SubtreeSummary(
                domain=self.domain,
                session_id=sid,
                gateway=self.view.gateway,
                receiver_count=len(rids),
                mean_loss=(sum(losses) / len(losses)) if losses else 0.0,
                max_loss=max(losses) if losses else 0.0,
                min_level=min(levels) if levels else 0,
                max_level=max(levels) if levels else 0,
                level_sum=sum(levels),
                bottleneck_bps=bottleneck,
                issued_at=now,
                round=round_no,
            ))
        self.summary_bytes_sent += SUMMARY_SIZE * len(out)
        return out

    # ------------------------------------------------------------------
    def deliver_advice(
        self, advice: FederationAdvice, now: float = 0.0,
        bus: Optional[Any] = None,
    ) -> bool:
        """The one way session-level advice enters the shard, fenced.

        Rejects advice from a deposed coordinator (epoch below the highest
        seen) and late/duplicate copies (round not newer than the applied
        advice at the same epoch); both are counted in ``stale_rejected``.
        Returns True when the advice was recorded.

        The domain controller keeps full authority inside its domain (the
        paper's domain isolation); the recorded ceiling only binds when the
        bounded-staleness machinery (:meth:`roll_staleness`) decides the
        advice has gone stale enough to clamp conservatively.
        """
        if not isinstance(advice, FederationAdvice):
            raise TypeError(
                f"shards accept FederationAdvice only, got "
                f"{type(advice).__name__}"
            )
        reason = None
        if advice.epoch < self.advice_epoch:
            reason = "stale_epoch"
        else:
            prev = self.advice.get(advice.session_id)
            if (
                prev is not None
                and advice.epoch == prev.epoch and advice.round <= prev.round
            ):
                reason = "stale_round"
        if reason is not None:
            self.stale_rejected += 1
            if bus is not None:
                bus.emit(
                    "federation.stale", now,
                    tier="shard", reason=reason, domain=self.domain,
                    session=advice.session_id, epoch=advice.epoch,
                    round=advice.round, seen_epoch=self.advice_epoch,
                )
            return False
        self.advice_epoch = max(self.advice_epoch, advice.epoch)
        self.advice[advice.session_id] = advice
        self.advice_received += 1
        return True

    # ------------------------------------------------------------------
    def roll_staleness(
        self, round_no: int, now: float, bus: Optional[Any] = None,
    ) -> None:
        """Per-round bounded-staleness bookkeeping, at the round barrier.

        Advice *age* is how many rounds ago the applied advice was merged.
        While ``age <= staleness_budget`` the domain runs unclamped on its
        last-known advice.  Beyond the budget the shard turns conservative:
        the controller's session ceiling is clamped to
        ``max(DECAY_FLOOR, ceiling - (age - budget))`` — one layer shed per
        additional dark round — so a partitioned domain sheds load instead
        of over-subscribing a shared bottleneck on stale information.
        """
        controller = self.controller
        for sid in sorted(self.advice, key=str):
            advice = self.advice[sid]
            age = round_no - advice.round
            effective = None
            if age > self.staleness_budget:
                decay = age - self.staleness_budget
                effective = max(DECAY_FLOOR, advice.ceiling - decay)
                controller.session_ceilings[sid] = effective
                self.decayed_rounds += 1
                if bus is not None:
                    bus.emit(
                        "federation.stale", now,
                        tier="shard", reason="decay", domain=self.domain,
                        session=sid, age=age, budget=self.staleness_budget,
                        ceiling=effective, advised=advice.ceiling,
                    )
            else:
                controller.session_ceilings.pop(sid, None)
            self.ceiling_log.append({
                "round": round_no,
                "session": str(sid),
                "age": age,
                "epoch": advice.epoch,
                "advised_ceiling": advice.ceiling,
                "effective_ceiling": effective,
            })

    # ------------------------------------------------------------------
    def control_bytes_intra(self) -> int:
        """Receiver-tier control bytes: receiver agents <-> domain controller."""
        return int(control_bytes(self.scenario))
