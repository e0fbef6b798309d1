"""The fault injectors: one method per fault kind, named after the kind.

:class:`FaultInjector` executes the scenario-level kinds against a
:class:`~repro.experiments.scenario.Scenario`, :class:`FederationInjector`
the ``fed_*`` kinds against a ``FederatedSession``.  Each method is the
minimal mutation of simulator state plus the follow-up work the rest of
the system needs to observe the fault:

* link changes re-run unicast routing and regraft multicast trees
  (:meth:`~repro.multicast.manager.MulticastManager.on_topology_change`);
* controller kill/failover manipulates
  :class:`~repro.control.agent.ControllerAgent` lifecycles;
* discovery faults flip the :class:`~repro.control.discovery.TopologyDiscovery`
  ``available`` flag (queries time out while it is off).

Injectors are deliberately synchronous: they mutate state at the simulated
instant they are invoked, and announce it as ``fault.<kind>`` on the event
bus at that instant.  Scheduling is the :class:`~repro.faults.plan.FaultPlan`'s
job.  :func:`kinds_of` reads the kinds off the classes, so adding a fault
is adding one method — and a plan that fires it (``tests/test_faults.py``
holds every kind to a default plan).
"""

from __future__ import annotations

import inspect
from typing import Any, List, Optional, Tuple

from ..control.agent import ControllerAgent, ReceiverAgent
from ..experiments.membership import join_receiver, leave_receiver

__all__ = ["FaultInjector", "FederationInjector", "kinds_of"]


def kinds_of(injector: type) -> Tuple[str, ...]:
    """The fault kinds ``injector`` executes: the public methods it defines
    (``execute`` is inherited), in definition order."""
    return tuple(
        name for name, attr in vars(injector).items()
        if inspect.isfunction(attr) and not name.startswith("_")
    )


class _Injector:
    """Shared dispatch: run the method named by the event's kind, log it.

    Every executed event is appended to :attr:`log` as
    ``(time, kind, detail)`` so experiments and tests can correlate faults
    with observed behaviour, and emitted as ``fault.<kind>`` (with
    ``detail``) on the tier's event bus, so a run's ``events.jsonl`` holds
    it in time order.
    """

    #: Word naming the injector's tier in the unknown-kind error.
    _tier = ""

    def __init__(self) -> None:
        self.log: List[Tuple[float, str, str]] = []

    def _now(self) -> float:
        raise NotImplementedError

    def _bus(self) -> Optional[Any]:
        raise NotImplementedError

    def execute(self, kind: str, args: tuple, kwargs: dict) -> None:
        """Run one fault event now (dispatched from the scheduled plan)."""
        if kind not in kinds_of(type(self)):
            raise ValueError(f"{kind!r} is not a {self._tier} fault kind")
        getattr(self, kind)(*args, **kwargs)
        detail = ", ".join(
            [str(a) for a in args] + [f"{k}={v}" for k, v in sorted(kwargs.items())]
        )
        now = self._now()
        self.log.append((now, kind, detail))
        bus = self._bus()
        if bus is not None:
            bus.emit(f"fault.{kind}", now, detail=detail)


class FaultInjector(_Injector):
    """Executes the scenario-level fault kinds against one scenario."""

    _tier = "scenario"

    def __init__(self, scenario):
        super().__init__()
        self.scenario = scenario

    def _now(self) -> float:
        return self.scenario.sched.now

    def _bus(self) -> Optional[Any]:
        return self.scenario.sched.bus

    # -- links ----------------------------------------------------------
    def link_down(self, a: Any, b: Any, bidirectional: bool = True) -> None:
        """Fail the link: queued packets dropped, trees rebuilt around it
        (torn down entirely when no alternate path exists)."""
        removed = self.scenario.network.set_link_up(a, b, False, bidirectional=bidirectional)
        self.scenario.mcast.on_topology_change(removed_edges=removed)

    def link_up(self, a: Any, b: Any, bidirectional: bool = True) -> None:
        """Repair the link and regraft severed branches through it."""
        added = self.scenario.network.set_link_up(a, b, True, bidirectional=bidirectional)
        self.scenario.mcast.on_topology_change(added_edges=added)

    # -- controllers ----------------------------------------------------
    def controller_kill(self, name: str = "default") -> None:
        """Stop the named controller (process crash: port unbound, ticks end,
        learned registrations/reports retained only in the dead process)."""
        self.scenario.controllers[name].stop()

    def controller_failover(self, name: str = "default") -> None:
        """Promote the standby node for ``name`` to be the active controller.

        Builds a fresh :class:`ControllerAgent` on the standby node sharing
        the primary's discovery tool and algorithm, and replaces the
        scenario's registry entry so subsequent queries see the standby
        (receivers find it through their candidate rotation; see
        ``ReceiverAgent.controller_candidates``).  The standby starts cold,
        with an empty receiver table, and re-learns its receivers from their
        re-registrations — the degradation path the chaos scenario exercises.
        """
        scenario = self.scenario
        primary = scenario.controllers[name]
        standby_node = scenario.standby_node(name)
        if standby_node is None:
            raise ValueError(f"controller {name!r} has no standby node configured")
        if primary.active:
            primary.stop()
        standby = ControllerAgent(
            scenario.network.node(standby_node),
            list(scenario.sessions.values()),
            primary.discovery,
            primary.algorithm,
            interval=primary.interval,
            # Fencing: start() bumps the epoch once more, so the standby ends
            # strictly above anything the deposed primary ever stamped (a
            # stopped controller never starts again).
            initial_epoch=primary.epoch + 1,
            fence_repairs=primary.fence_repairs,
        )
        standby.attach_enforcer(primary._enforcer)
        scenario.promote_controller(name, standby)
        standby.start()

    # -- discovery ------------------------------------------------------
    def discovery_blackout(self, name: str = "default") -> None:
        """Queries raise until :meth:`discovery_restore` (tool unreachable
        or timing out)."""
        self.scenario.controllers[name].discovery.available = False

    def discovery_restore(self, name: str = "default") -> None:
        """Discovery answers fully again."""
        self.scenario.controllers[name].discovery.available = True

    # -- byzantine receivers --------------------------------------------
    def byzantine_start(self, receiver_id: Any, mode: str) -> None:
        """The receiver's agent begins misbehaving as ``mode``: ``lie_high``
        inflates reported loss, ``lie_low`` zeroes it and forges full-rate
        byte counts, ``disobey`` ignores suggestions and climbs a layer per
        report (modes combine with ``+``).  The media path is untouched —
        the receiver misbehaves, the network does not."""
        self._agent(receiver_id).set_byzantine(mode)

    def _agent(self, receiver_id: Any):
        agent = self.scenario.receiver_handle(receiver_id).agent
        if not isinstance(agent, ReceiverAgent):
            raise ValueError(
                f"receiver {receiver_id!r} has no controllable agent "
                "(byzantine faults need mode='controlled' and run())"
            )
        return agent

    # -- membership -----------------------------------------------------
    # Idempotent: a leave for a departed receiver (or a join for a present
    # one) is a no-op, so seeded churn plans need not track membership.
    # The mechanics are shared with the workload engine (see
    # repro.experiments.membership), so fault-plan churn and workload
    # crowds have identical reattach/RNG-stream semantics.
    def receiver_leave(self, receiver_id: Any) -> None:
        """Depart: stop the agent, unsubscribe from every layer group (the
        groups prune after the usual leave latency)."""
        leave_receiver(self.scenario, self.scenario.receiver_handle(receiver_id))

    def receiver_join(self, receiver_id: Any) -> None:
        """(Re)arrive at the same node with a fresh control agent on its
        own deterministic RNG stream."""
        join_receiver(self.scenario, self.scenario.receiver_handle(receiver_id))


class FederationInjector(_Injector):
    """Executes the ``fed_*`` fault kinds against a ``FederatedSession``.

    The federation tier has no discrete-event scheduler of its own — its
    clock is the lockstep round barrier — so fed plans are not scheduled
    via :meth:`FaultPlan.apply`.  The session drains due events itself at
    the start of each round (see ``FederatedSession._fire_faults``) and
    calls :meth:`execute`, which mutates the inter-domain channel or the
    coordinator lifecycle; the log's time is the barrier time.
    """

    _tier = "federation"

    def __init__(self, fed):
        super().__init__()
        self.fed = fed
        #: Barrier time of the round currently firing (set by the session).
        self.clock = 0.0

    def _now(self) -> float:
        return self.clock

    def _bus(self) -> Optional[Any]:
        return self.fed.bus

    def fed_link_degrade(
        self, loss: float = 0.0, duplicate: float = 0.0, delay_rounds: int = 0,
        domain: Any = None,
    ) -> None:
        """Impair the inter-domain channel (all domains, or just one):
        per-message loss/duplication probabilities and a maximum in-flight
        delay in lockstep rounds."""
        self.fed.channel.set_impairment(
            loss=loss, duplicate=duplicate, delay_rounds=delay_rounds,
            domain=domain,
        )

    def fed_partition(self, domain: Any) -> None:
        """Cut the domain off from the federation in both directions."""
        self.fed.channel.partition(domain)

    def fed_heal(self, domain: Any) -> None:
        """Reconnect a partitioned domain."""
        self.fed.channel.heal(domain)

    def fed_coordinator_kill(self) -> None:
        """Crash the federation coordinator (no merges, no acks)."""
        self.fed.crash_coordinator()

    def fed_coordinator_failover(self) -> None:
        """Promote the standby coordinator (bumped epoch, warm summary
        store)."""
        self.fed.failover_coordinator()
