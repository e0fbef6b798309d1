"""Per-subsystem fault injectors and the dispatching :class:`FaultInjector`.

Each injector wraps the minimal mutation of simulator state plus the
follow-up work the rest of the system needs to observe the fault:

* link/node changes re-run unicast routing and regraft multicast trees
  (:meth:`~repro.multicast.manager.MulticastManager.on_topology_change`);
* controller kill/restart/failover manipulates
  :class:`~repro.control.agent.ControllerAgent` lifecycles;
* discovery faults flip the :class:`~repro.control.discovery.TopologyDiscovery`
  fault mode (timeout / truncated trees).

Injectors are deliberately synchronous: they mutate state at the simulated
instant they are invoked.  Scheduling is the :class:`~repro.faults.plan.FaultPlan`'s
job.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple

from ..control.agent import ControllerAgent
from ..control.messages import Register, RegisterAck, Report, Suggestion
from ..simnet.packet import CONTROL, Packet

__all__ = [
    "LinkFault",
    "NodeFault",
    "ControllerFault",
    "DiscoveryFault",
    "ByzantineReceiverFault",
    "MembershipFault",
    "PacketCorruptionFault",
    "FaultInjector",
    "FederationInjector",
]


class LinkFault:
    """Down/up, flapping and capacity degradation for links."""

    def __init__(self, network, mcast):
        self.network = network
        self.mcast = mcast
        # (a, b) -> original bandwidth, for restore() after degrade().
        self._original_bw = {}

    def down(self, a: Any, b: Any, bidirectional: bool = True) -> None:
        """Fail the link: queued packets dropped, trees repaired around it
        (locally patched by protecting builders, torn down entirely when no
        alternate path exists)."""
        removed = self.network.set_link_up(a, b, False, bidirectional=bidirectional)
        self.mcast.on_topology_change(removed_edges=removed)

    def up(self, a: Any, b: Any, bidirectional: bool = True) -> None:
        """Repair the link and regraft severed branches through it."""
        added = self.network.set_link_up(a, b, True, bidirectional=bidirectional)
        self.mcast.on_topology_change(added_edges=added)

    def degrade(self, a: Any, b: Any, factor: float, bidirectional: bool = True) -> None:
        """Scale the link's capacity by ``factor`` (e.g. 0.25 = quarter rate)."""
        if not 0 < factor:
            raise ValueError(f"factor must be positive, got {factor}")
        link = self.network.link(a, b)
        self._original_bw.setdefault((a, b), link.bandwidth)
        self.network.set_link_bandwidth(
            a, b, link.bandwidth * factor, bidirectional=bidirectional
        )

    def restore(self, a: Any, b: Any, bidirectional: bool = True) -> None:
        """Undo :meth:`degrade` (no-op if the link was never degraded)."""
        original = self._original_bw.pop((a, b), None)
        if original is not None:
            self.network.set_link_bandwidth(a, b, original, bidirectional=bidirectional)


class NodeFault:
    """Crash/recover whole nodes (router or host)."""

    def __init__(self, network, mcast):
        self.network = network
        self.mcast = mcast

    def crash(self, name: Any) -> None:
        """Fail the node: bound ports, forwarding state and all incident
        links (with their queued packets) are lost."""
        removed = self.network.set_node_up(name, False)
        self.mcast.on_topology_change(removed_edges=removed)

    def recover(self, name: Any) -> None:
        """Bring the node back; multicast branches through it regraft, and
        surviving applications re-bind ports via their re-register paths."""
        added = self.network.set_node_up(name, True)
        self.mcast.on_topology_change(added_edges=added)


class ControllerFault:
    """Kill/restart controller agents, optionally failing over to a standby.

    Operates on a :class:`~repro.experiments.scenario.Scenario` so that a
    failover can re-point the scenario's controller registry at the standby
    (receivers find it through their candidate rotation; see
    ``ReceiverAgent.controller_candidates``).
    """

    def __init__(self, scenario):
        self.scenario = scenario
        #: name -> the killed primary (kept for restart()).
        self._killed = {}

    def kill(self, name: str = "default") -> None:
        """Stop the named controller (process crash: port unbound, ticks end,
        learned registrations/reports retained only in the dead process)."""
        controller = self.scenario.controllers[name]
        controller.stop()
        self._killed[name] = controller

    def restart(self, name: str = "default") -> None:
        """Restart the previously killed controller in place (warm restart:
        it still holds its registration table)."""
        controller = self._killed.pop(name, None) or self.scenario.controllers[name]
        controller.start()

    def failover(self, name: str = "default", cold: bool = True) -> ControllerAgent:
        """Promote the standby node for ``name`` to be the active controller.

        Builds a fresh :class:`ControllerAgent` on the standby node sharing
        the primary's discovery tool and algorithm, and replaces the
        scenario's registry entry so subsequent queries see the standby.
        With ``cold`` (default) the standby starts with empty registration
        state and must re-learn its receivers from their re-registrations —
        the degradation path the chaos scenario exercises.
        """
        primary = self.scenario.controllers[name]
        if primary.active:
            primary.stop()
        standby_node = self.scenario.standby_node(name)
        if standby_node is None:
            raise ValueError(f"controller {name!r} has no standby node configured")
        standby = ControllerAgent(
            self.scenario.network.node(standby_node),
            list(self.scenario.sessions.values()),
            primary.discovery,
            primary.algorithm,
            interval=primary.interval,
            info_staleness=primary.info_staleness,
            max_tree_age=primary.max_tree_age,
            # Fencing: start() bumps the epoch once more, so the standby ends
            # strictly above anything the deposed primary can ever reach even
            # if the primary is restarted in place afterwards.
            initial_epoch=primary.epoch + 1,
            registration_ttl_intervals=primary.registration_ttl_intervals,
            quarantine_level=primary.quarantine_level,
            fence_repairs=primary.fence_repairs,
        )
        standby.attach_enforcer(primary._enforcer)
        if not cold:
            standby.registrations.update(primary.registrations)
        self.scenario.promote_controller(name, standby, standby_node)
        standby.start()
        return standby


class DiscoveryFault:
    """Topology-discovery outages: timeouts and truncated answers."""

    def __init__(self, scenario):
        self.scenario = scenario

    def _discovery(self, name: str):
        return self.scenario.discoveries[name]

    def blackout(self, name: str = "default") -> None:
        """Queries raise until :meth:`restore` (tool unreachable/timing out)."""
        self._discovery(name).set_fault("timeout")

    def truncate(self, name: str = "default", depth: int = 1) -> None:
        """Queries return trees clipped ``depth`` hops below the root."""
        self._discovery(name).set_fault("truncate", truncate_depth=depth)

    def restore(self, name: str = "default") -> None:
        self._discovery(name).clear_fault()


class ByzantineReceiverFault:
    """Turn receiver agents byzantine (and honest again).

    Flips :attr:`~repro.control.agent.ReceiverAgent.byzantine_mode` on the
    named receiver's agent: ``lie_high`` inflates reported loss, ``lie_low``
    zeroes it and forges full-rate byte counts, ``disobey`` ignores
    suggestions and climbs a layer per report (modes combine with ``+``).
    The media path is untouched — the receiver misbehaves, the network does
    not.
    """

    def __init__(self, scenario):
        self.scenario = scenario

    def _agent(self, receiver_id: Any):
        for handle in self.scenario.receivers:
            if handle.receiver_id == receiver_id:
                if handle.agent is None or not hasattr(handle.agent, "set_byzantine"):
                    raise ValueError(
                        f"receiver {receiver_id!r} has no controllable agent "
                        "(byzantine faults need mode='controlled' and run())"
                    )
                return handle.agent
        raise KeyError(f"unknown receiver {receiver_id!r}")

    def start(self, receiver_id: Any, mode: str) -> None:
        """Begin misbehaving as ``mode``."""
        self._agent(receiver_id).set_byzantine(mode)

    def stop(self, receiver_id: Any) -> None:
        """Restore honest behaviour."""
        self._agent(receiver_id).set_byzantine(None)


class MembershipFault:
    """Receiver churn: whole receivers depart and (re)arrive.

    ``leave`` detaches the receiver like :meth:`~repro.experiments.scenario.
    Scenario.detach_receiver` (its control agent stops, its subscription
    drops to zero, its groups prune after the usual leave latency);
    ``join`` re-attaches it via :meth:`~repro.experiments.scenario.Scenario.
    reattach_receiver`, which builds a fresh control agent with its own
    deterministic RNG stream.  Both are idempotent — a leave for an already
    departed receiver (or a join for a present one) is a no-op, so seeded
    churn plans need not track membership state.

    The mechanics are shared with the workload engine (see
    :mod:`repro.experiments.membership`), so fault-plan churn and workload
    crowds have identical reattach/RNG-stream semantics.
    """

    def __init__(self, scenario):
        self.scenario = scenario

    def _handle(self, receiver_id: Any):
        return self.scenario.receiver_handle(receiver_id)

    def leave(self, receiver_id: Any) -> None:
        """Depart: stop the agent, unsubscribe from every layer group."""
        from ..experiments.membership import leave_receiver

        leave_receiver(self.scenario, self._handle(receiver_id))

    def join(self, receiver_id: Any) -> None:
        """(Re)arrive with a fresh control agent at the same node."""
        from ..experiments.membership import join_receiver

        join_receiver(self.scenario, self._handle(receiver_id))


class PacketCorruptionFault:
    """Duplicate / reorder / garble CONTROL packets originated at a node.

    Wraps the node's ``send`` with a corrupting shim (an instance attribute
    shadowing the class method); ``restore`` removes the shim and flushes any
    packet held back by reorder mode.  Only CONTROL packets are touched —
    this models a flaky control channel, not media corruption — and each is
    corrupted independently with probability ``rate``:

    * ``duplicate`` — the packet is sent twice (a fresh copy, so per-hop
      counters stay independent);
    * ``reorder`` — the packet is held back and sent after the *next*
      CONTROL packet (swapping adjacent messages, which inverts seq order);
    * ``garble`` — the control payload's fields are driven out of range, so
      the receiver-side validation (the checksum stand-in) must reject it.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        # node name -> (mode, rate, rng, held packet or None)
        self._active: Dict[Any, dict] = {}

    MODES = ("duplicate", "reorder", "garble")

    def corrupt(self, node_name: Any, mode: str = "garble", rate: float = 1.0) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown corruption mode {mode!r}")
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        if node_name in self._active:
            raise ValueError(f"node {node_name!r} is already corrupting")
        node = self.scenario.network.node(node_name)
        state = {
            "mode": mode,
            "rate": rate,
            "rng": self.scenario.rngs.fork(f"wirefault/{node_name}"),
            "held": None,
            "node": node,
        }
        self._active[node_name] = state
        real_send = type(node).send  # unbound: the shim survives node.crash()

        def corrupted_send(pkt: Packet) -> None:
            if pkt.kind != CONTROL or state["rng"].random() >= state["rate"]:
                real_send(node, pkt)
                return
            mode_ = state["mode"]
            if mode_ == "duplicate":
                real_send(node, pkt)
                real_send(node, self._clone(pkt))
            elif mode_ == "reorder":
                held = state["held"]
                if held is None:
                    state["held"] = pkt  # wait for the next control packet
                else:
                    state["held"] = None
                    real_send(node, pkt)
                    real_send(node, held)
            else:  # garble
                real_send(node, self._garble(pkt))

        node.send = corrupted_send  # type: ignore[method-assign]

    def restore(self, node_name: Any) -> None:
        """Remove the shim; a held (reordered) packet is finally sent."""
        state = self._active.pop(node_name, None)
        if state is None:
            return
        node = state["node"]
        node.__dict__.pop("send", None)
        if state["held"] is not None:
            node.send(state["held"])

    @staticmethod
    def _clone(pkt: Packet) -> Packet:
        return Packet(
            src=pkt.src, dst=pkt.dst, group=pkt.group, size=pkt.size,
            seq=pkt.seq, session=pkt.session, layer=pkt.layer, kind=pkt.kind,
            port=pkt.port, payload=pkt.payload, created_at=pkt.created_at,
        )

    @classmethod
    def _garble(cls, pkt: Packet) -> Packet:
        out = cls._clone(pkt)
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


class FaultInjector:
    """Binds the injectors to one scenario and dispatches plan events.

    Every executed event is appended to :attr:`log` as
    ``(sim_time, kind, detail)`` so experiments and tests can correlate
    faults with observed behaviour.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.links = LinkFault(scenario.network, scenario.mcast)
        self.nodes = NodeFault(scenario.network, scenario.mcast)
        self.controllers = ControllerFault(scenario)
        self.discovery = DiscoveryFault(scenario)
        self.byzantine = ByzantineReceiverFault(scenario)
        self.membership = MembershipFault(scenario)
        self.wire = PacketCorruptionFault(scenario)
        self.log: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    def execute(self, kind: str, args: tuple, kwargs: dict) -> None:
        """Run one fault event now (dispatched from the scheduled plan)."""
        handler = getattr(self, f"_do_{kind}", None)
        if handler is None:
            raise ValueError(f"unknown fault kind {kind!r}")
        handler(*args, **kwargs)
        detail = ", ".join(
            [str(a) for a in args] + [f"{k}={v}" for k, v in sorted(kwargs.items())]
        )
        self.log.append((self.scenario.sched.now, kind, detail))

    # -- dispatch targets ----------------------------------------------
    def _do_link_down(self, a, b, **kw):
        self.links.down(a, b, **kw)

    def _do_link_up(self, a, b, **kw):
        self.links.up(a, b, **kw)

    def _do_link_degrade(self, a, b, factor, **kw):
        self.links.degrade(a, b, factor, **kw)

    def _do_link_restore(self, a, b, **kw):
        self.links.restore(a, b, **kw)

    def _do_node_crash(self, name):
        self.nodes.crash(name)

    def _do_node_recover(self, name):
        self.nodes.recover(name)

    def _do_controller_kill(self, name="default"):
        self.controllers.kill(name)

    def _do_controller_restart(self, name="default"):
        self.controllers.restart(name)

    def _do_controller_failover(self, name="default", cold=True):
        self.controllers.failover(name, cold=cold)

    def _do_discovery_blackout(self, name="default"):
        self.discovery.blackout(name)

    def _do_discovery_truncate(self, name="default", depth=1):
        self.discovery.truncate(name, depth=depth)

    def _do_discovery_restore(self, name="default"):
        self.discovery.restore(name)

    def _do_byzantine_start(self, receiver_id, mode):
        self.byzantine.start(receiver_id, mode)

    def _do_byzantine_stop(self, receiver_id):
        self.byzantine.stop(receiver_id)

    def _do_receiver_leave(self, receiver_id):
        self.membership.leave(receiver_id)

    def _do_receiver_join(self, receiver_id):
        self.membership.join(receiver_id)

    def _do_control_corrupt(self, node, mode="garble", rate=1.0):
        self.wire.corrupt(node, mode=mode, rate=rate)

    def _do_control_restore(self, node):
        self.wire.restore(node)


class FederationInjector:
    """Dispatches ``fed_*`` plan events against a ``FederatedSession``.

    The federation tier has no discrete-event scheduler of its own — its
    clock is the lockstep round barrier — so fed plans are not scheduled
    via :meth:`FaultPlan.apply`.  The session drains due events itself at
    the start of each round (see ``FederatedSession._fire_faults``) and
    calls :meth:`execute`, which mutates the inter-domain channel or the
    coordinator lifecycle.  Every executed event is appended to
    :attr:`log` as ``(barrier_time, kind, detail)``, same shape as
    :class:`FaultInjector`'s log.
    """

    def __init__(self, fed):
        self.fed = fed
        #: Barrier time of the round currently firing (set by the session).
        self.clock = 0.0
        self.log: List[Tuple[float, str, str]] = []

    def execute(self, kind: str, args: tuple, kwargs: dict) -> None:
        """Run one federation fault event now."""
        handler = getattr(self, f"_do_{kind}", None)
        if handler is None:
            raise ValueError(f"{kind!r} is not a federation fault kind")
        handler(*args, **kwargs)
        detail = ", ".join(
            [str(a) for a in args] + [f"{k}={v}" for k, v in sorted(kwargs.items())]
        )
        self.log.append((self.clock, kind, detail))

    def _channel(self):
        channel = self.fed.channel
        if channel is None:
            raise ValueError(
                "federation channel faults need a FederatedSession built "
                "with a channel (pass plan= or channel=)"
            )
        return channel

    # -- dispatch targets ----------------------------------------------
    def _do_fed_link_degrade(
        self, loss=0.0, duplicate=0.0, delay_rounds=0, domain=None
    ):
        self._channel().set_impairment(
            loss=loss, duplicate=duplicate, delay_rounds=delay_rounds,
            domain=domain,
        )

    def _do_fed_link_restore(self, domain=None):
        self._channel().clear_impairment(domain)

    def _do_fed_partition(self, domain):
        self._channel().partition(domain)

    def _do_fed_heal(self, domain):
        self._channel().heal(domain)

    def _do_fed_coordinator_kill(self):
        self.fed.crash_coordinator()

    def _do_fed_coordinator_failover(self):
        self.fed.failover_coordinator()
