"""High-level scenario assembly: one object wiring the whole stack together.

:class:`Scenario` owns a scheduler, network, multicast manager, sources,
receivers and (optionally) a controller agent, and exposes the handful of
calls an experiment needs::

    sc = Scenario(seed=1)
    sc.add_node("src"); sc.add_node("x"); sc.add_node("r1")
    sc.add_link("src", "x", bandwidth=10e6); sc.add_link("x", "r1", bandwidth=500e3)
    sess = sc.add_session("src", traffic="vbr", peak_to_mean=3)
    sc.attach_controller("src")                      # TopoSense by default
    sc.add_receiver(sess.session_id, "r1")
    result = sc.run(duration=300.0)
    print(result.summary())

Receiver *modes*:

* ``"controlled"`` — a :class:`~repro.control.agent.ReceiverAgent` reports to
  the controller and obeys its suggestions (the TopoSense architecture);
* ``"rlm"`` — a topology-blind :class:`~repro.baselines.rlm.RLMReceiver`
  adapts on its own (baseline);
* ``"static"`` — no adaptation at all; stays at ``initial_level``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..baselines.oracle import optimal_levels
from ..baselines.rlm import RLMReceiver
from ..baselines.session_plan import SessionPlan
from ..control.agent import ControllerAgent, ReceiverAgent
from ..control.discovery import TopologyDiscovery
from ..control.session import SessionDescriptor
from ..core.config import TopoSenseConfig
from ..core.toposense import TopoSense
from ..media.layers import PAPER_SCHEDULE, LayerSchedule
from ..media.receiver import LayeredReceiver
from ..media.source import CBR, VBR, LayeredSource
from ..metrics.deviation import mean_relative_deviation, relative_deviation
from ..metrics.stability import worst_receiver_stability
from ..multicast.manager import MulticastManager
from ..simnet.engine import Scheduler
from ..simnet.rng import RngRegistry
from ..simnet.topology import Network
from ..simnet.tracing import StepTrace

__all__ = ["Scenario", "ScenarioResult", "ReceiverHandle"]

#: Largest queue (packets) :meth:`Scenario.add_link` sizes by default.
DEFAULT_QUEUE_LIMIT = 32
#: Propagation delay (s) of a link added without one.
DEFAULT_DELAY = 0.2


@dataclass
class ReceiverHandle:
    """Everything an experiment needs about one receiver."""

    receiver_id: Any
    session_id: Any
    node: Any
    receiver: LayeredReceiver
    mode: str
    agent: Any = None  # ReceiverAgent or RLMReceiver, set at run()
    controller_name: str = "default"
    #: The agent's controller-silence deadline (None: the agent's default).
    reregister_after: Optional[float] = None
    #: Workload receivers start parked: subscribed to nothing, no agent
    #: auto-started at run() — they only come alive via reattach_receiver.
    parked: bool = False

    @property
    def trace(self) -> StepTrace:
        """The receiver's subscription-level trace."""
        return self.receiver.trace


class Scenario:
    """A complete simulation setup (network + sessions + control plane)."""

    def __init__(self, seed: int = 0, leave_latency: float = 1.0):
        self.sched = Scheduler()
        self.network = Network(self.sched)
        self.mcast = MulticastManager(self.network, leave_latency=leave_latency)
        self.rngs = RngRegistry(seed)
        self.seed = seed
        self.sessions: Dict[Any, SessionDescriptor] = {}
        self.sources: Dict[Any, LayeredSource] = {}
        self.plans: Dict[Any, SessionPlan] = {}
        self.receivers: List[ReceiverHandle] = []
        self._handles_by_id: Dict[Any, ReceiverHandle] = {}
        self.controllers: Dict[str, ControllerAgent] = {}
        self.discoveries: Dict[str, TopologyDiscovery] = {}
        self._controller_nodes: Dict[str, Any] = {}
        self._standby_nodes: Dict[str, Any] = {}
        self._session_counter = 0
        self._receiver_counter = 0
        self._rejoin_counts: Dict[Any, int] = {}

    # ------------------------------------------------------------------
    # Topology construction (thin delegation)
    # ------------------------------------------------------------------
    def add_node(self, name: Any):
        """Add a node to the network."""
        return self.network.add_node(name)

    def add_link(self, a: Any, b: Any, bandwidth: float, delay: Optional[float] = None,
                 queue_limit: Optional[int] = None, **kw):
        """Add a (bidirectional by default) link; paper defaults applied.

        When ``queue_limit`` is not given it is sized to roughly half a
        second of line rate (clamped to [8, ``DEFAULT_QUEUE_LIMIT``]): a
        fixed deep buffer on a slow link would hide overload for several
        seconds and take as long to drain, distorting every loss signal the
        controller depends on.
        """
        if queue_limit is None:
            queue_limit = int(min(DEFAULT_QUEUE_LIMIT, max(8, bandwidth * 0.5 / 8000)))
        return self.network.add_link(
            a,
            b,
            bandwidth=bandwidth,
            delay=DEFAULT_DELAY if delay is None else delay,
            queue_limit=queue_limit,
            **kw,
        )

    # ------------------------------------------------------------------
    # Sessions / receivers / controller
    # ------------------------------------------------------------------
    def add_session(
        self,
        source: Any,
        traffic: str = "cbr",
        peak_to_mean: float = 3.0,
        schedule: Optional[LayerSchedule] = None,
        session_id: Optional[Any] = None,
        start_at: Optional[float] = None,
    ) -> SessionDescriptor:
        """Create a layered session rooted at ``source`` and its source app.

        ``start_at`` defaults to the current simulated time, so sessions can
        also be added between :meth:`run` calls (a competing session arriving
        mid-experiment).
        """
        if schedule is None:
            schedule = PAPER_SCHEDULE
        if session_id is None:
            session_id = self._session_counter
        if session_id in self.sessions:
            raise ValueError(f"duplicate session id {session_id!r}")
        self._session_counter += 1
        groups = tuple(self.mcast.create_group(source) for _ in range(schedule.n_layers))
        descriptor = SessionDescriptor(session_id, source, groups, schedule)
        model = CBR if traffic == "cbr" else VBR
        src_app = LayeredSource(
            self.network.node(source),
            session_id,
            groups,
            schedule,
            model=model,
            peak_to_mean=peak_to_mean,
            rng=self.rngs.fork(f"vbr/{session_id}"),
            phase_jitter=True,
        )
        self.sessions[session_id] = descriptor
        self.sources[session_id] = src_app
        self.plans[session_id] = SessionPlan(session_id, source, schedule)
        src_app.start(at=self.sched.now if start_at is None else start_at)
        for controller in self.controllers.values():
            controller.add_session(descriptor)
        return descriptor

    def add_receiver(
        self,
        session_id: Any,
        node: Any,
        receiver_id: Optional[Any] = None,
        initial_level: int = 1,
        mode: str = "controlled",
        controller: str = "default",
        reregister_after: Optional[float] = None,
        parked: bool = False,
    ) -> ReceiverHandle:
        """Place a receiver for ``session_id`` at ``node``.

        ``controller`` names the controller agent the receiver registers
        with (only meaningful for ``mode="controlled"``; multi-domain
        scenarios attach one controller per domain).  ``reregister_after``
        is the :class:`ReceiverAgent`'s controller-silence deadline (chaos
        scenarios tighten it; None keeps the agent's default).

        ``parked`` receivers (the workload engine's pre-created population)
        join nothing and get no agent at :meth:`run`; they first come alive
        through :meth:`reattach_receiver`.  Park with ``initial_level=0``.
        """
        if mode not in ("controlled", "rlm", "static"):
            raise ValueError(f"unknown receiver mode {mode!r}")
        if parked and initial_level != 0:
            raise ValueError("parked receivers must start at initial_level=0")
        descriptor = self.sessions[session_id]
        if receiver_id is None:
            receiver_id = f"r{self._receiver_counter}"
        self._receiver_counter += 1
        receiver = LayeredReceiver(
            self.network.node(node),
            session_id,
            list(descriptor.groups),
            descriptor.schedule,
            self.mcast,
            receiver_id=receiver_id,
            initial_level=initial_level,
        )
        handle = ReceiverHandle(
            receiver_id, session_id, node, receiver, mode,
            controller_name=controller, reregister_after=reregister_after,
            parked=parked,
        )
        self.receivers.append(handle)
        self._handles_by_id.setdefault(receiver_id, handle)
        self.plans[session_id].add_receiver(receiver_id, node)
        return handle

    def receiver_handle(self, receiver_id: Any) -> ReceiverHandle:
        """O(1) lookup of a receiver handle by id (first match wins)."""
        try:
            return self._handles_by_id[receiver_id]
        except KeyError:
            raise KeyError(f"unknown receiver {receiver_id!r}") from None

    def attach_controller(
        self,
        node: Any,
        algorithm: Optional[Any] = None,
        config: Optional[TopoSenseConfig] = None,
        staleness: float = 0.0,
        name: str = "default",
        domain: Optional[set] = None,
        standby_node: Optional[Any] = None,
        fence_repairs: bool = False,
    ) -> ControllerAgent:
        """Station a controller agent at ``node``.

        ``algorithm`` defaults to a fresh :class:`TopoSense`; pass an
        :class:`~repro.baselines.oracle.OracleController` or
        :class:`~repro.baselines.static.StaticController` for baselines.
        The control interval is ``config.interval`` (the default config's
        when ``config`` is None).

        Multi-domain scenarios (the paper's Fig. 3 hierarchy) attach one
        controller per domain, each with a distinct ``name`` and a
        ``domain`` node set its discovery tool is clipped to; receivers
        then pick their controller via ``add_receiver(..., controller=)``.

        ``standby_node`` names a node a failed controller can fail over to
        (see :meth:`~repro.faults.injectors.FaultInjector.controller_failover`); receivers
        are given both addresses as registration candidates.

        The controller's quarantine enforcer (see :mod:`repro.control.guard`)
        is wired to this scenario's multicast manager so quarantined
        receivers are pruned from layer groups above
        :data:`~repro.control.agent.QUARANTINE_LEVEL`.

        ``fence_repairs`` makes the controller discard receiver reports whose
        measurement window overlaps a tree-repair disruption at that
        receiver's node (see DESIGN.md §12): a receiver on a detached
        subtree legitimately saw 100% loss, and feeding that to the
        congestion algorithm would be mistaken for congestion.
        """
        if name in self.controllers:
            raise ValueError(f"controller {name!r} already attached")
        cfg = config if config is not None else TopoSenseConfig()
        if algorithm is None:
            algorithm = TopoSense(
                config=cfg, rng=self.rngs.fork(f"toposense/backoff/{name}")
            )
        discovery = TopologyDiscovery(self.mcast, staleness=staleness, domain=domain)
        controller = ControllerAgent(
            self.network.node(node),
            list(self.sessions.values()),
            discovery,
            algorithm,
            interval=cfg.interval,
            fence_repairs=fence_repairs,
        )
        controller.attach_enforcer(self.quarantine_enforcer)
        self.discoveries[name] = discovery
        self.controllers[name] = controller
        self._controller_nodes[name] = node
        if standby_node is not None:
            if standby_node not in self.network.nodes:
                raise KeyError(f"unknown standby node {standby_node!r}")
            self._standby_nodes[name] = standby_node
        return controller

    def quarantine_enforcer(
        self, session_id: Any, node: Any, above_level: int, active: bool
    ) -> None:
        """Tree-level quarantine: (un)block ``node`` from every layer group
        of ``session_id`` above ``above_level``.

        Installed as the controller's enforcer hook — suggestions alone
        cannot restrain a receiver that ignores them, so the domain's
        routers stop serving it the upper layers.
        """
        descriptor = self.sessions.get(session_id)
        if descriptor is None:
            return
        for group in descriptor.groups[above_level:]:
            self.mcast.set_blocked(group, node, active)

    # -- failover plumbing (used by repro.faults) -----------------------
    def standby_node(self, name: str = "default") -> Optional[Any]:
        """The configured standby node for controller ``name`` (or None)."""
        return self._standby_nodes.get(name)

    def promote_controller(
        self, name: str, controller: ControllerAgent, node: Any
    ) -> None:
        """Replace the registry entry for ``name`` with a standby that took
        over at ``node`` (the old primary stays stopped but reachable to
        callers holding a reference)."""
        self.controllers[name] = controller
        self._controller_nodes[name] = node

    # -- single-controller conveniences (most scenarios) -----------------
    @property
    def controller(self) -> Optional[ControllerAgent]:
        """The sole controller, when exactly one is attached (else first)."""
        if not self.controllers:
            return None
        return next(iter(self.controllers.values()))

    @property
    def discovery(self) -> Optional[TopologyDiscovery]:
        """The first controller's discovery tool (convenience)."""
        if not self.discoveries:
            return None
        return next(iter(self.discoveries.values()))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration: float) -> "ScenarioResult":
        """Start pending agents, simulate for ``duration`` s.

        Receivers added between :meth:`run` calls get their agents started
        on the next call, so dynamic-membership experiments can interleave
        ``run`` / ``add_receiver`` / ``detach_receiver``.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        for handle in self.receivers:
            if handle.agent is not None or handle.mode == "static" or handle.parked:
                continue
            self._start_agent(handle)
        for controller in self.controllers.values():
            controller.start()  # idempotent
        self.sched.run(until=self.sched.now + duration)
        return ScenarioResult(self, self.sched.now)

    def detach_receiver(self, handle: ReceiverHandle) -> None:
        """Make a receiver depart: stop its control agent and unsubscribe.

        The handle (and its traces) stay available for analysis; the oracle
        plan keeps the receiver, so compute post-departure optima yourself
        when mixing departures with :meth:`ScenarioResult.optimal_levels`.
        """
        if handle.agent is not None:
            handle.agent.stop()
        if handle.receiver.level > 0:
            handle.receiver.set_level(0)

    def reattach_receiver(self, handle: ReceiverHandle) -> None:
        """Bring a departed receiver back (membership churn).

        Resubscribes the receiver at level 1 and starts a *fresh* control
        agent — the old one's periodic callbacks have stopped for good — on
        a new deterministic RNG stream keyed by the rejoin count, so churn
        runs replay bit-for-bit.
        """
        handle.parked = False
        if handle.receiver.level == 0:
            handle.receiver.set_level(1)
        n = self._rejoin_counts.get(handle.receiver_id, 0) + 1
        self._rejoin_counts[handle.receiver_id] = n
        self._start_agent(handle, f"/rejoin{n}")

    def _start_agent(self, handle: ReceiverHandle, stream: str = "") -> None:
        """Build and start ``handle``'s control agent: a
        :class:`ReceiverAgent` on RNG stream ``rcvagent/<id><stream>`` for
        a controlled receiver, an :class:`RLMReceiver` on ``rlm/<id><stream>``
        for an RLM one; other modes get none."""
        if handle.mode == "controlled":
            controller = self.controllers.get(handle.controller_name)
            if controller is None:
                raise ValueError(
                    f"receiver {handle.receiver_id!r} needs controller "
                    f"{handle.controller_name!r}: attach_controller() first"
                )
            candidates = [self._controller_nodes[handle.controller_name]]
            standby = self._standby_nodes.get(handle.controller_name)
            if standby is not None:
                candidates.append(standby)
            handle.agent = ReceiverAgent(
                handle.receiver,
                candidates[0],
                interval=controller.interval,
                rng=self.rngs.fork(f"rcvagent/{handle.receiver_id}{stream}"),
                reregister_after=handle.reregister_after,
                controller_candidates=candidates,
            )
        elif handle.mode == "rlm":
            handle.agent = RLMReceiver(
                handle.receiver, rng=self.rngs.fork(f"rlm/{handle.receiver_id}{stream}")
            )
        else:
            return
        handle.agent.start()


class ScenarioResult:
    """Post-run accessors for traces, metrics and the oracle optimum."""

    def __init__(self, scenario: Scenario, end_time: float):
        self.scenario = scenario
        self.end_time = end_time

    # ------------------------------------------------------------------
    @property
    def receivers(self) -> List[ReceiverHandle]:
        """All receiver handles in creation order."""
        return self.scenario.receivers

    def trace(self, receiver_id: Any) -> StepTrace:
        """Subscription trace of one receiver."""
        for h in self.scenario.receivers:
            if h.receiver_id == receiver_id:
                return h.trace
        raise KeyError(receiver_id)

    def optimal_levels(self) -> Dict[Tuple[Any, Any], int]:
        """Oracle optimum per (session, receiver), from true capacities."""
        return optimal_levels(self.scenario.network, list(self.scenario.plans.values()))

    # ------------------------------------------------------------------
    def mean_deviation(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Paper metric: mean relative deviation from optimal over [t0, t1]."""
        if t1 is None:
            t1 = self.end_time
        optimal = self.optimal_levels()
        pairs = [
            (h.trace, float(optimal[(h.session_id, h.receiver_id)]))
            for h in self.scenario.receivers
        ]
        return mean_relative_deviation(pairs, t0, t1)

    def deviation_of(
        self, receiver_id: Any, t0: float = 0.0, t1: Optional[float] = None
    ) -> float:
        """Relative deviation of one receiver."""
        if t1 is None:
            t1 = self.end_time
        optimal = self.optimal_levels()
        for h in self.scenario.receivers:
            if h.receiver_id == receiver_id:
                return relative_deviation(
                    h.trace, float(optimal[(h.session_id, h.receiver_id)]), t0, t1
                )
        raise KeyError(receiver_id)

    def stability(self, t0: float = 0.0, t1: Optional[float] = None) -> Tuple[int, float]:
        """(max changes by any receiver, mean gap for that receiver)."""
        if t1 is None:
            t1 = self.end_time
        return worst_receiver_stability([h.trace for h in self.receivers], t0, t1)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable per-receiver summary (used by examples/CLI)."""
        lines = [
            f"simulated {self.end_time:.0f}s, "
            f"{self.scenario.sched.events_processed} events, "
            f"{self.scenario.network.total_drops()} queue drops"
        ]
        optimal = self.optimal_levels()
        for h in self.receivers:
            opt = optimal.get((h.session_id, h.receiver_id))
            mean_lvl = h.trace.time_weighted_mean(0.0, self.end_time)
            lines.append(
                f"  session {h.session_id} {h.receiver_id}@{h.node}: "
                f"level={h.receiver.level} (mean {mean_lvl:.2f}, optimal {opt}), "
                f"{h.trace.num_changes(0.0, self.end_time)} changes"
            )
        return "\n".join(lines)
