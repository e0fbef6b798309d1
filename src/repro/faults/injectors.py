"""The fault injectors: one method per fault kind, named after the kind.

:class:`FaultInjector` executes the scenario-level kinds against a
:class:`~repro.experiments.scenario.Scenario`, :class:`FederationInjector`
the ``fed_*`` kinds against a ``FederatedSession``.  Each method is the
minimal mutation of simulator state plus the follow-up work the rest of
the system needs to observe the fault:

* link/node changes re-run unicast routing and regraft multicast trees
  (:meth:`~repro.multicast.manager.MulticastManager.on_topology_change`);
* controller kill/restart/failover manipulates
  :class:`~repro.control.agent.ControllerAgent` lifecycles;
* discovery faults flip the :class:`~repro.control.discovery.TopologyDiscovery`
  fault mode (timeout / truncated trees).

Injectors are deliberately synchronous: they mutate state at the simulated
instant they are invoked.  Scheduling is the :class:`~repro.faults.plan.FaultPlan`'s
job.  :func:`kinds_of` reads the kinds off the classes, so adding a fault
is adding one method.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Any, Dict, List, Tuple

from ..control.agent import ControllerAgent, ReceiverAgent
from ..control.messages import Register, RegisterAck, Report, Suggestion
from ..experiments.membership import join_receiver, leave_receiver
from ..simnet.packet import CONTROL, Packet

__all__ = ["FaultInjector", "FederationInjector", "kinds_of"]

#: Ways ``control_corrupt`` can mangle a CONTROL packet.
CORRUPTION_MODES = ("duplicate", "reorder", "garble")


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
    with observed behaviour.
    """

    #: Word naming the injector's tier in the unknown-kind error.
    _tier = ""

    def __init__(self) -> None:
        self.log: List[Tuple[float, str, str]] = []

    def _now(self) -> float:
        raise NotImplementedError

    def execute(self, kind: str, args: tuple, kwargs: dict) -> None:
        """Run one fault event now (dispatched from the scheduled plan)."""
        if kind not in kinds_of(type(self)):
            raise ValueError(f"{kind!r} is not a {self._tier} fault kind")
        getattr(self, kind)(*args, **kwargs)
        detail = ", ".join(
            [str(a) for a in args] + [f"{k}={v}" for k, v in sorted(kwargs.items())]
        )
        self.log.append((self._now(), kind, detail))


class FaultInjector(_Injector):
    """Executes the scenario-level fault kinds against one scenario."""

    _tier = "scenario"

    def __init__(self, scenario):
        super().__init__()
        self.scenario = scenario
        #: (a, b) -> original bandwidth, for link_restore() after link_degrade().
        self._original_bw: Dict[Tuple[Any, Any], float] = {}
        #: controller name -> the killed primary (kept for controller_restart()).
        self._killed: Dict[str, ControllerAgent] = {}
        #: node name -> corruption state (mode, rate, rng, held packet, node).
        self._corrupting: Dict[Any, dict] = {}

    def _now(self) -> float:
        return self.scenario.sched.now

    # -- links ----------------------------------------------------------
    def link_down(self, a: Any, b: Any, bidirectional: bool = True) -> None:
        """Fail the link: queued packets dropped, trees repaired around it
        (locally patched by protecting builders, torn down entirely when no
        alternate path exists)."""
        removed = self.scenario.network.set_link_up(a, b, False, bidirectional=bidirectional)
        self.scenario.mcast.on_topology_change(removed_edges=removed)

    def link_up(self, a: Any, b: Any, bidirectional: bool = True) -> None:
        """Repair the link and regraft severed branches through it (a
        direction with a crashed endpoint returns when that node recovers)."""
        added = self.scenario.network.set_link_up(a, b, True, bidirectional=bidirectional)
        self.scenario.mcast.on_topology_change(added_edges=added)

    def link_degrade(self, a: Any, b: Any, factor: float, bidirectional: bool = True) -> None:
        """Scale the link's capacity by ``factor`` (e.g. 0.25 = quarter rate)."""
        if not 0 < factor:
            raise ValueError(f"factor must be positive, got {factor}")
        network = self.scenario.network
        link = network.link(a, b)
        self._original_bw.setdefault((a, b), link.bandwidth)
        network.set_link_bandwidth(a, b, link.bandwidth * factor, bidirectional=bidirectional)

    def link_restore(self, a: Any, b: Any, bidirectional: bool = True) -> None:
        """Undo :meth:`link_degrade` (no-op if the link was never degraded)."""
        original = self._original_bw.pop((a, b), None)
        if original is not None:
            self.scenario.network.set_link_bandwidth(a, b, original, bidirectional=bidirectional)

    # -- nodes ----------------------------------------------------------
    def node_crash(self, name: Any) -> None:
        """Fail the node: bound ports, forwarding state and all incident
        links (with their queued packets) are lost."""
        removed = self.scenario.network.set_node_up(name, False)
        self.scenario.mcast.on_topology_change(removed_edges=removed)

    def node_recover(self, name: Any) -> None:
        """Bring the node back; multicast branches through it regraft, and
        surviving applications re-bind ports via their re-register paths."""
        added = self.scenario.network.set_node_up(name, True)
        self.scenario.mcast.on_topology_change(added_edges=added)

    # -- controllers ----------------------------------------------------
    def controller_kill(self, name: str = "default") -> None:
        """Stop the named controller (process crash: port unbound, ticks end,
        learned registrations/reports retained only in the dead process)."""
        controller = self.scenario.controllers[name]
        controller.stop()
        self._killed[name] = controller

    def controller_restart(self, name: str = "default") -> None:
        """Restart the previously killed controller in place (warm restart:
        it still holds its registration table)."""
        controller = self._killed.pop(name, None) or self.scenario.controllers[name]
        controller.start()

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
        if primary.active:
            primary.stop()
        standby_node = scenario.standby_node(name)
        if standby_node is None:
            raise ValueError(f"controller {name!r} has no standby node configured")
        standby = ControllerAgent(
            scenario.network.node(standby_node),
            list(scenario.sessions.values()),
            primary.discovery,
            primary.algorithm,
            interval=primary.interval,
            # Fencing: start() bumps the epoch once more, so the standby ends
            # strictly above anything the deposed primary can ever reach even
            # if the primary is restarted in place afterwards.
            initial_epoch=primary.epoch + 1,
            fence_repairs=primary.fence_repairs,
        )
        standby.attach_enforcer(primary._enforcer)
        scenario.promote_controller(name, standby, standby_node)
        standby.start()

    # -- discovery ------------------------------------------------------
    def discovery_blackout(self, name: str = "default") -> None:
        """Queries raise until :meth:`discovery_restore` (tool unreachable
        or timing out)."""
        self.scenario.discoveries[name].set_fault("timeout")

    def discovery_truncate(self, name: str = "default", depth: int = 1) -> None:
        """Queries return trees clipped ``depth`` hops below the root."""
        self.scenario.discoveries[name].set_fault("truncate", truncate_depth=depth)

    def discovery_restore(self, name: str = "default") -> None:
        """Discovery answers fully again."""
        self.scenario.discoveries[name].clear_fault()

    # -- byzantine receivers --------------------------------------------
    def byzantine_start(self, receiver_id: Any, mode: str) -> None:
        """The receiver's agent begins misbehaving as ``mode``: ``lie_high``
        inflates reported loss, ``lie_low`` zeroes it and forges full-rate
        byte counts, ``disobey`` ignores suggestions and climbs a layer per
        report (modes combine with ``+``).  The media path is untouched —
        the receiver misbehaves, the network does not."""
        self._agent(receiver_id).set_byzantine(mode)

    def byzantine_stop(self, receiver_id: Any) -> None:
        """Restore honest behaviour."""
        self._agent(receiver_id).set_byzantine(None)

    def _agent(self, receiver_id: Any):
        for handle in self.scenario.receivers:
            if handle.receiver_id == receiver_id:
                if not isinstance(handle.agent, ReceiverAgent):
                    raise ValueError(
                        f"receiver {receiver_id!r} has no controllable agent "
                        "(byzantine faults need mode='controlled' and run())"
                    )
                return handle.agent
        raise KeyError(f"unknown receiver {receiver_id!r}")

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

    # -- control-packet corruption --------------------------------------
    def control_corrupt(self, node: Any, mode: str = "garble", rate: float = 1.0) -> None:
        """Duplicate / reorder / garble CONTROL packets originated at ``node``.

        Wraps the node's ``send`` with a corrupting shim (an instance
        attribute shadowing the class method).  Only CONTROL packets are
        touched — this models a flaky control channel, not media corruption
        — and each is corrupted independently with probability ``rate``:

        * ``duplicate`` — the packet is sent twice (a fresh copy, so per-hop
          counters stay independent);
        * ``reorder`` — the packet is held back and sent after the *next*
          CONTROL packet (swapping adjacent messages, which inverts seq order);
        * ``garble`` — the control payload's fields are driven out of range,
          so the receiver-side validation (the checksum stand-in) must
          reject it.
        """
        if mode not in CORRUPTION_MODES:
            raise ValueError(f"unknown corruption mode {mode!r}")
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        if node in self._corrupting:
            raise ValueError(f"node {node!r} is already corrupting")
        target = self.scenario.network.node(node)
        state = {
            "mode": mode,
            "rate": rate,
            "rng": self.scenario.rngs.fork(f"wirefault/{node}"),
            "held": None,
            "node": target,
        }
        self._corrupting[node] = state
        real_send = type(target).send  # unbound: the shim survives node.crash()

        def corrupted_send(pkt: Packet) -> None:
            if pkt.kind != CONTROL or state["rng"].random() >= state["rate"]:
                real_send(target, pkt)
                return
            mode_ = state["mode"]
            if mode_ == "duplicate":
                real_send(target, pkt)
                real_send(target, _clone(pkt))
            elif mode_ == "reorder":
                held = state["held"]
                if held is None:
                    state["held"] = pkt  # wait for the next control packet
                else:
                    state["held"] = None
                    real_send(target, pkt)
                    real_send(target, held)
            else:  # garble
                real_send(target, _garble(pkt))

        target.send = corrupted_send  # type: ignore[method-assign]

    def control_restore(self, node: Any) -> None:
        """Remove the shim; a held (reordered) packet is finally sent."""
        state = self._corrupting.pop(node, None)
        if state is None:
            return
        target = state["node"]
        target.__dict__.pop("send", None)
        if state["held"] is not None:
            target.send(state["held"])


def _clone(pkt: Packet) -> Packet:
    return Packet(
        src=pkt.src, dst=pkt.dst, group=pkt.group, size=pkt.size,
        seq=pkt.seq, kind=pkt.kind, port=pkt.port, payload=pkt.payload,
    )


def _garble(pkt: Packet) -> Packet:
    out = _clone(pkt)
    msg = pkt.payload
    if isinstance(msg, Report):
        out.payload = dataclasses.replace(msg, loss_rate=-1.0, bytes=-1.0)
    elif isinstance(msg, Register):
        out.payload = dataclasses.replace(msg, port="")
    elif isinstance(msg, Suggestion):
        out.payload = dataclasses.replace(msg, level=-1)
    elif isinstance(msg, RegisterAck):
        out.payload = dataclasses.replace(msg, receiver_id=("garbled", msg.receiver_id))
    else:
        out.payload = ("garbled", msg)
    return out


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

    def fed_link_restore(self, domain: Any = None) -> None:
        """Undo :meth:`fed_link_degrade` for one domain (or the mesh)."""
        self.fed.channel.clear_impairment(domain)

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
