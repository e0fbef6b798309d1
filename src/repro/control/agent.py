"""Controller and receiver agents (the paper's §II architecture).

The **controller agent** is an application on one node of the domain (the
paper stations it at a source so its traffic shares the congested links).  It

* accepts registrations and periodic loss reports from receivers,
* queries the topology-discovery tool every control interval,
* runs a pluggable congestion-control algorithm (TopoSense by default, but
  any object with the same ``update(now, session_inputs)`` signature — the
  baselines reuse this agent),
* unicasts subscription suggestions back to the receivers.

The **receiver agent** wraps a :class:`~repro.media.receiver.LayeredReceiver`:
it registers with the controller (retrying until acknowledged), reports every
interval, and obeys arriving suggestions.  If suggestions stop arriving for
:data:`UNILATERAL_AFTER` seconds (lost control traffic), it makes the paper's
"unilateral decision": drop a layer whenever its own loss rate stays above
:data:`LOSS_THRESHOLD`.

Hardening (see :mod:`repro.control.guard`):

* Receivers stamp a strictly increasing ``seq`` on Register/Report; the
  controller rejects duplicates and reordered stragglers.
* The controller stamps its ``epoch`` on RegisterAck/Suggestion; receivers
  fence out messages from a deposed controller (lower epoch than the highest
  they have seen).
* Every inbound report passes the :class:`~repro.control.guard.ReportGuard`;
  quarantined receivers are cut out of the algorithm's inputs, pinned to
  :data:`QUARANTINE_LEVEL`, and (via :meth:`ControllerAgent.attach_enforcer`)
  pruned from the upper layer groups at the tree level.
* Registrations are RTCP-style soft state: a receiver silent for
  :data:`REGISTRATION_TTL_INTERVALS` control intervals is forgotten entirely.
  Everything the controller knows about one receiver is one
  :class:`ReceiverEntry` in ``ControllerAgent.receivers[session][receiver]``.

For adversarial experiments the receiver agent can be turned byzantine
(:meth:`ReceiverAgent.set_byzantine`): ``lie_high`` inflates reported loss,
``lie_low`` zeroes it and forges a full-rate byte count, ``disobey`` ignores
suggestions and climbs a layer per report.  Modes combine with ``+``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..core.session_topology import SessionTree
from ..core.types import ReceiverReport, SessionInput, SuggestionSet
from ..media.receiver import LayeredReceiver
from ..simnet.node import Node
from ..simnet.packet import CONTROL, Packet
from ..simnet.rng import fallback_rng
from .discovery import DiscoveryUnavailable, TopologyDiscovery
from .guard import ReportGuard
from .messages import (
    CONTROL_PORT,
    REGISTER_SIZE,
    REPORT_SIZE,
    SUGGESTION_SIZE,
    Register,
    RegisterAck,
    Report,
    Suggestion,
)
from .session import SessionDescriptor

__all__ = ["ControllerAgent", "ReceiverAgent", "ReceiverEntry", "BYZANTINE_MODES"]

#: Recognised byzantine behaviours (combinable with ``+``).
BYZANTINE_MODES = ("lie_high", "lie_low", "disobey")

#: Enforcer callback: ``(session_id, node, above_level, active)``.
Enforcer = Callable[[Any, Any, int, bool], None]

#: A receiver that has heard no suggestion for this long (s) acts alone ...
UNILATERAL_AFTER = 6.0
#: ... dropping a layer whenever its own interval loss rate exceeds this.
LOSS_THRESHOLD = 0.05
#: Registration attempts per round; the first retry waits REGISTER_BACKOFF
#: (s), doubling up to REGISTER_BACKOFF_CAP, which is also the cool-off
#: before the next round.
REGISTER_RETRIES = 5
REGISTER_BACKOFF = 0.5
REGISTER_BACKOFF_CAP = 8.0

#: Level a quarantined receiver is pinned to (and pruned above).
QUARANTINE_LEVEL = 1
#: A receiver silent for this many control intervals is forgotten.
REGISTRATION_TTL_INTERVALS = 10.0
#: While discovery is unavailable, the last discovered tree is served while
#: at most this old (s); older, the session is skipped for the tick.
MAX_TREE_AGE = 30.0
#: Reports kept per receiver at most.  The controller keeps fewer: only
#: those a later tick can still read (see :class:`ReceiverEntry`).
REPORT_HISTORY = 64


class ReceiverAgent:
    """Receiver-side control logic for one (receiver, session) pair."""

    def __init__(
        self,
        receiver: LayeredReceiver,
        controller_node: Any,
        interval: float = 2.0,
        rng: Optional[np.random.Generator] = None,
        reregister_after: Optional[float] = None,
        controller_candidates: Optional[List[Any]] = None,
    ) -> None:
        self.receiver = receiver
        self.node: Node = receiver.node
        self.sched = receiver.sched
        #: Controller addresses to try, in order.  The first entry is the
        #: primary; further entries are standbys the agent rotates to when a
        #: registration round fails or the current controller goes silent
        #: (VRRP/anycast-style failover without a discovery protocol).
        self.controller_candidates: List[Any] = [
            c for c in (controller_candidates or [controller_node]) if c is not None
        ] or [controller_node]
        self._candidate_index = 0
        self.controller_node = self.controller_candidates[0]
        self.interval = interval
        self.rng = rng if rng is not None else fallback_rng()
        #: Controller-silence deadline: with no ack/suggestion for this long
        #: the agent declares the controller dead, drops its registration and
        #: re-registers (rotating candidates), so a failed-over controller
        #: re-learns its receivers.  Defaults to a conservative multiple of
        #: the control interval; chaos scenarios tighten it.
        self.reregister_after = (
            max(3 * UNILATERAL_AFTER, 6 * interval)
            if reregister_after is None
            else reregister_after
        )
        self.port = f"rcv:{receiver.session_id}:{receiver.receiver_id}"
        self.registered = False
        self.last_suggestion_at: Optional[float] = None
        self.suggestions_received = 0
        #: Arrival times of every suggestion (for suggestion-gap metrics).
        self.suggestion_times: List[float] = []
        self.reports_sent = 0
        self.control_bytes_sent = 0
        self.unilateral_drops = 0
        self.register_attempts = 0
        self.reregistrations = 0
        #: Highest controller epoch seen; acks/suggestions below it are from
        #: a deposed controller and are fenced out (0 = nothing seen yet).
        self.controller_epoch = 0
        self.stale_suggestions_rejected = 0
        self.invalid_suggestions_rejected = 0
        #: Active byzantine behaviours (None = honest).  Set by the
        #: ``byzantine_start``/``byzantine_stop`` faults via :meth:`set_byzantine`.
        self.byzantine_mode: Optional[FrozenSet[str]] = None
        self.lies_told = 0
        self.active = True
        self._started = False
        self._started_at: Optional[float] = None
        self._last_contact: Optional[float] = None
        self._register_ev: Optional[Any] = None
        self._seq = 0

    # ------------------------------------------------------------------
    def set_byzantine(self, mode: Optional[str]) -> None:
        """Switch behaviour: ``"lie_high"``, ``"lie_low"``, ``"disobey"`` or
        ``+``-joined combinations; None restores honesty."""
        parts = None if mode is None else mode.split("+")
        for part in parts or ():
            if part not in BYZANTINE_MODES:
                raise ValueError(f"unknown byzantine mode {part!r}")
        self.byzantine_mode = None if parts is None else frozenset(parts)

    def _is(self, mode: str) -> bool:
        return self.byzantine_mode is not None and mode in self.byzantine_mode

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the control port, register, and begin periodic reporting."""
        if self._started:
            return
        self._started = True
        self._started_at = self.sched.now
        self._last_contact = self.sched.now
        self.node.bind_port(self.port, self._on_packet)
        # Jittered phase so receivers do not report in lock-step.  Drawn
        # before registering so the phase does not depend on how many
        # backoff-jitter draws the registration path makes.
        phase = float(self.rng.uniform(0.05, 0.25)) * self.interval
        self._register(attempt=0)
        self.sched.every(self.interval, self._report, start=self.sched.now + self.interval + phase)

    # ------------------------------------------------------------------
    # Registration (capped exponential backoff + failover rotation)
    # ------------------------------------------------------------------
    def _rotate_controller(self) -> None:
        if len(self.controller_candidates) > 1:
            self._candidate_index = (self._candidate_index + 1) % len(
                self.controller_candidates
            )
            self.controller_node = self.controller_candidates[self._candidate_index]

    def _begin_registration(self) -> None:
        """Start a fresh registration round, superseding any pending retry."""
        if self._register_ev is not None:
            self._register_ev.cancel()
            self._register_ev = None
        self._register(attempt=0)

    def _register(self, attempt: int) -> None:
        if self.registered or not self.active:
            return
        # The node may have crashed and recovered since we bound the port.
        if self.port not in self.node.port_handlers:
            self.node.bind_port(self.port, self._on_packet)
        if attempt > 0:
            # Retrying: the previous attempt went unanswered; with standbys
            # configured, alternate targets so a dead primary does not
            # blackhole the whole round.
            self._rotate_controller()
        self._seq += 1
        msg = Register(
            receiver_id=self.receiver.receiver_id,
            session_id=self.receiver.session_id,
            node=self.node.name,
            port=self.port,
            seq=self._seq,
        )
        self._send(msg, REGISTER_SIZE)
        self.register_attempts += 1
        if attempt + 1 >= REGISTER_RETRIES:
            # Round exhausted: cool off for the cap, then start over.  The
            # agent never gives up permanently — an orphaned receiver must
            # eventually find a restarted or failed-over controller.
            delay = REGISTER_BACKOFF_CAP
            next_attempt = 0
        else:
            delay = min(REGISTER_BACKOFF_CAP, REGISTER_BACKOFF * (2.0 ** attempt))
            next_attempt = attempt + 1
        delay *= 1.0 + float(self.rng.uniform(-0.25, 0.25))  # jitter
        self._register_ev = self.sched.after(delay, self._register, next_attempt)

    def _send(self, msg: Any, size: int) -> None:
        self.control_bytes_sent += size
        self.node.send(
            Packet(
                src=self.node.name,
                dst=self.controller_node,
                size=size,
                kind=CONTROL,
                port=CONTROL_PORT,
                payload=msg,
                created_at=self.sched.now,
            )
        )

    def stop(self) -> None:
        """Cease reporting and unsubscribe (the receiver departs).

        The controller simply stops hearing from this receiver; its stale
        registration ages out of relevance as the discovery tool no longer
        finds the node in any layer tree.
        """
        if not self.active:
            return
        self.active = False
        if self._register_ev is not None:
            self._register_ev.cancel()
            self._register_ev = None
        self.receiver.set_level(0)
        self.node.unbind_port(self.port)

    # ------------------------------------------------------------------
    def _report(self) -> None:
        if not self.active:
            raise StopIteration  # ends the periodic reporting loop
        # Silence check first, so this interval's report already goes to the
        # rotated-to controller (a failed-over standby needs a report before
        # its next tick to have anything to base a suggestion on).
        self._check_controller_silence()
        stats = self.receiver.interval_stats()
        loss_rate = stats.loss_rate
        bytes_ = stats.bytes
        if self._is("disobey") and self.receiver.level < self.receiver.schedule.n_layers:
            # Grab another layer regardless of what anyone suggested.
            self.receiver.set_level(self.receiver.level + 1)
        if self._is("lie_high"):
            loss_rate = max(loss_rate, 0.5)
            self.lies_told += 1
        if self._is("lie_low"):
            # Claim a loss-free interval at full subscribed rate.
            loss_rate = 0.0
            dt = max(stats.t1 - stats.t0, 0.0)
            bytes_ = self.receiver.schedule.cumulative(self.receiver.level) * dt / 8.0
            self.lies_told += 1
        self._seq += 1
        msg = Report(
            receiver_id=self.receiver.receiver_id,
            session_id=self.receiver.session_id,
            loss_rate=loss_rate,
            bytes=bytes_,
            level=self.receiver.level,
            t0=stats.t0,
            t1=stats.t1,
            seq=self._seq,
        )
        self._send(msg, REPORT_SIZE)
        self.reports_sent += 1
        if not self._is("disobey"):
            self._maybe_unilateral(stats.loss_rate)

    def _check_controller_silence(self) -> None:
        """Drop a registration the controller has stopped honouring.

        A failed-over (or restarted) controller starts with an empty
        registration table; without this, receivers would keep reporting to
        it while never being suggested to again."""
        if not self.registered or self._last_contact is None:
            return
        if self.sched.now - self._last_contact <= self.reregister_after:
            return
        self.registered = False
        self.reregistrations += 1
        self._rotate_controller()
        self._last_contact = self.sched.now  # restart the silence clock
        self._begin_registration()

    def _maybe_unilateral(self, loss_rate: float) -> None:
        """Paper: receivers act alone when suggestions stop arriving.

        A receiver that has *never* heard from the controller (orphaned by a
        lost registration or a controller that was down from the start) uses
        its own start time as the reference: after :data:`UNILATERAL_AFTER`
        seconds of silence it manages its subscription unilaterally rather
        than staying over-subscribed forever."""
        reference = self.last_suggestion_at
        if reference is None:
            reference = self._started_at
            if reference is None:
                return
        if self.sched.now - reference < UNILATERAL_AFTER:
            return
        if loss_rate > LOSS_THRESHOLD and self.receiver.level > 1:
            self.receiver.drop_layer()
            self.unilateral_drops += 1

    def _sync_controller(self, node: Any) -> None:
        """Stick with the controller that actually answered us.

        A registration retry may have rotated ``controller_node`` to a
        standby while the primary's ack was still in flight (the first
        backoff can be shorter than the control RTT); without this, reports
        would flow to a node where no controller is listening."""
        if node in self.controller_candidates:
            self._candidate_index = self.controller_candidates.index(node)
            self.controller_node = node

    def _admit_epoch(self, epoch: int) -> bool:
        """Fence out messages from a deposed controller: anything below the
        highest epoch seen is stale and rejected."""
        if epoch < self.controller_epoch:
            self.stale_suggestions_rejected += 1
            return False
        self.controller_epoch = epoch
        return True

    def _on_packet(self, pkt: Packet) -> None:
        msg = pkt.payload
        if isinstance(msg, RegisterAck):
            if (
                msg.receiver_id != self.receiver.receiver_id
                or msg.session_id != self.receiver.session_id
            ):
                self.invalid_suggestions_rejected += 1
                return
            if not self._admit_epoch(msg.epoch):
                return
            self.registered = True
            self._last_contact = self.sched.now
            self._sync_controller(pkt.src)
        elif isinstance(msg, Suggestion):
            if (
                msg.receiver_id != self.receiver.receiver_id
                or msg.session_id != self.receiver.session_id
                or not isinstance(msg.level, int)
                or isinstance(msg.level, bool)
                or not 0 <= msg.level <= self.receiver.schedule.n_layers
            ):
                self.invalid_suggestions_rejected += 1
                return
            if not self._admit_epoch(msg.epoch):
                return
            self.last_suggestion_at = self.sched.now
            self._last_contact = self.sched.now
            self._sync_controller(pkt.src)
            self.suggestions_received += 1
            self.suggestion_times.append(self.sched.now)
            if self._is("disobey"):
                return  # heard, counted, ignored
            # Layers are added one at a time (paper §V: a large layer
            # count "can delay convergence since layers are added one at
            # a time"); downward moves apply immediately.
            current = self.receiver.level
            if msg.level > current:
                self.receiver.set_level(current + 1)
            else:
                self.receiver.set_level(msg.level)


class ReceiverEntry:
    """The controller's soft state for one registered receiver: its
    registration, its recent reports and the last level suggested to it.

    ``history`` holds only the reports a tick can still ask for.  A tick
    reads :meth:`report_as_of` at ``now - staleness``, and that cutoff never
    moves back (staleness is fixed per discovery tool), so the controller
    drops the oldest report once the next one arrived by the current
    cutoff.  At most :data:`REPORT_HISTORY` reports are kept either way;
    with reports every interval the history stays near ``staleness /
    interval`` entries however long the run.
    """

    __slots__ = ("register", "history", "last_heard", "last_suggested")

    def __init__(self, register: Register, now: float) -> None:
        self.register = register
        #: ``(arrival time, Report)`` pairs, oldest first: the newest, and
        #: the ones a later tick's cutoff can still select.
        self.history: List[Tuple[float, Report]] = []
        #: Time of the last accepted control message.
        self.last_heard = now
        #: Last level suggested (the guard's disobedience reference).
        self.last_suggested: Optional[int] = None

    @property
    def latest(self) -> Optional[Report]:
        """The newest accepted report, if any."""
        return self.history[-1][1] if self.history else None

    def report_as_of(self, cutoff: float) -> Optional[Report]:
        """Newest report that had arrived by ``cutoff``."""
        for arrived, rep in reversed(self.history):
            if arrived <= cutoff:
                return rep
        return None


class ControllerAgent:
    """The per-domain controller agent running the control loop."""

    def __init__(
        self,
        node: Node,
        sessions: List[SessionDescriptor],
        discovery: TopologyDiscovery,
        algorithm: Any,
        interval: float = 2.0,
        initial_epoch: int = 0,
        fence_repairs: bool = False,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if initial_epoch < 0:
            raise ValueError("initial_epoch must be >= 0")
        self.node = node
        self.sched = node.sched
        self.sessions = {s.session_id: s for s in sessions}
        #: The paper's Fig. 10 stales "topology and loss information"
        #: together: the algorithm sees each receiver's report as of
        #: ``discovery.staleness`` ago, the age of the discovered trees.
        self.discovery = discovery
        self.algorithm = algorithm
        self.interval = interval
        #: Report validation/quarantine layer.
        self.guard = ReportGuard()
        #: session_id -> hard layer ceiling imposed from above (federation
        #: bounded-staleness enforcement: a shard whose advice has gone
        #: stale clamps its controller here so a dark domain cannot
        #: over-subscribe a shared bottleneck).  Empty = no clamp; classic
        #: single-domain experiments never touch it.
        self.session_ceilings: Dict[Any, int] = {}
        #: Discard reports whose measurement window overlaps a tree-repair
        #: disruption at the reporting node (the receiver sat on a detached
        #: subtree — its 100% loss is plumbing, not congestion).  Requires a
        #: discovery tool exposing ``disrupted_during``; default off so the
        #: classic experiments are unaffected.
        self.fence_repairs = fence_repairs
        #: session_id -> receiver_id -> :class:`ReceiverEntry`, in
        #: registration order: all per-receiver state, one record each.
        self.receivers: Dict[Any, Dict[Any, ReceiverEntry]] = {
            sid: {} for sid in self.sessions
        }
        # session_id -> (discovered_at, tree): last-known-good discovery
        self._last_good_trees: Dict[Any, tuple] = {}
        self.reports_received = 0
        self.suggestions_sent = 0
        self.suggestions_clamped = 0
        self.updates_run = 0
        self.discovery_failures = 0
        self.sessions_skipped = 0
        self.registrations_expired = 0
        self.reports_fenced = 0
        self.control_bytes_sent = 0
        #: Optional :class:`~repro.obs.profile.Profiler`; when set, every
        #: tick charges its wall time to the ``"ctrl.tick"`` span.
        self.profiler: Optional[Any] = None
        self.last_suggestions: Optional[SuggestionSet] = None
        #: Optional tree-level quarantine hook (see :meth:`attach_enforcer`).
        self._enforcer: Optional[Enforcer] = None
        self.active = False
        #: Fencing token stamped on every RegisterAck/Suggestion, bumped on
        #: each (re)start; a standby created for failover starts above its
        #: predecessor so receivers reject the deposed primary's messages.
        #: Doubles as the restart generation: a stale tick chain from before
        #: a stop()/start() cycle sees a newer epoch and dies instead of
        #: double-ticking.
        self.epoch = initial_epoch

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the control port and begin the periodic algorithm loop.

        The first tick happens 1.75 intervals in, so that at least one round
        of receiver reports (sent just past each interval boundary, plus
        propagation) has arrived.  Callable again after :meth:`stop` — a
        restarted controller resumes with whatever state it still holds.
        """
        if self.active:
            return
        self.active = True
        self.epoch += 1
        if CONTROL_PORT not in self.node.port_handlers:
            self.node.bind_port(CONTROL_PORT, self._on_packet)
        self.sched.every(
            self.interval,
            self._tick,
            self.epoch,
            start=self.sched.now + 1.75 * self.interval,
        )

    def stop(self) -> None:
        """Crash/stop the controller: unbind the port, end the tick loop.

        Receivers stop getting acks and suggestions; their silence watchdog
        eventually drops the registration and re-registers (possibly with a
        standby).  :meth:`start` restarts this agent in place.
        """
        if not self.active:
            return
        self.active = False
        self.node.unbind_port(CONTROL_PORT)

    def add_session(self, descriptor: SessionDescriptor) -> None:
        """Register an additional session to manage."""
        self.sessions[descriptor.session_id] = descriptor
        self.receivers.setdefault(descriptor.session_id, {})

    def attach_enforcer(self, enforcer: Optional[Enforcer]) -> None:
        """Install the tree-level quarantine hook.

        Called as ``enforcer(session_id, node, above_level, active)`` when a
        receiver's quarantine begins (``active=True``) or ends.  The scenario
        wires this to :meth:`repro.multicast.manager.MulticastManager.set_blocked`
        so a quarantined (possibly disobedient) receiver is physically pruned
        from every layer group above ``above_level`` — suggestions alone
        cannot restrain a receiver that ignores them.
        """
        self._enforcer = enforcer

    # ------------------------------------------------------------------
    def _entry(self, key: tuple) -> Optional[ReceiverEntry]:
        """The entry of ``(session_id, receiver_id)``, if registered."""
        table = self.receivers.get(key[0])
        return None if table is None else table.get(key[1])

    def _on_packet(self, pkt: Packet) -> None:
        msg = pkt.payload
        now = self.sched.now
        if isinstance(msg, Register):
            key = (msg.session_id, msg.receiver_id)
            reason = self.guard.admit_register(
                key, msg, known_session=msg.session_id in self.sessions
            )
            if reason is not None:
                return
            entry = self._entry(key)
            if entry is None:
                self.receivers[msg.session_id][msg.receiver_id] = ReceiverEntry(msg, now)
            else:
                entry.register = msg
                entry.last_heard = now
            bus = self.sched.bus
            if bus is not None:
                bus.emit(
                    "ctrl.register", now,
                    receiver=msg.receiver_id, session=msg.session_id, node=msg.node,
                )
            ack = RegisterAck(
                receiver_id=msg.receiver_id,
                session_id=msg.session_id,
                epoch=self.epoch,
            )
            self._send_to(msg.node, msg.port, ack, REGISTER_SIZE)
        elif isinstance(msg, Report):
            key = (msg.session_id, msg.receiver_id)
            descriptor = self.sessions.get(msg.session_id)
            entry = self._entry(key)
            reason = self.guard.admit_report(
                key,
                msg,
                descriptor.schedule if descriptor is not None else None,
                registered=entry is not None,
                now=now,
                last_suggestion=None if entry is None else entry.last_suggested,
            )
            if reason is not None:
                return
            assert entry is not None  # the guard rejects unregistered senders
            history = entry.history
            history.append((now, msg))
            # Ticks read ``report_as_of(tick - staleness)``, a cutoff that
            # only moves forward: a report followed by one that arrived by
            # ``now - staleness`` can never be read again.
            reach = now - self.discovery.staleness
            while len(history) > REPORT_HISTORY or (len(history) > 1 and history[1][0] <= reach):
                del history[0]
            entry.last_heard = now
            self.reports_received += 1
            bus = self.sched.bus
            if bus is not None:
                bus.emit(
                    "ctrl.report", now,
                    receiver=msg.receiver_id, session=msg.session_id,
                    loss=msg.loss_rate, level=msg.level,
                )
        else:
            self.guard.note_malformed()

    def _send_to(self, node_name: Any, port: str, msg: Any, size: int) -> None:
        self.control_bytes_sent += size
        self.node.send(
            Packet(
                src=self.node.name,
                dst=node_name,
                size=size,
                kind=CONTROL,
                port=port,
                payload=msg,
                created_at=self.sched.now,
            )
        )

    def _discover_tree(
        self, descriptor: SessionDescriptor, receivers: Dict[Any, Any], now: float
    ) -> Optional[SessionTree]:
        """Discover the session tree, degrading gracefully on failure.

        On :class:`DiscoveryUnavailable` the last successfully discovered
        tree is served while it is at most :data:`MAX_TREE_AGE` old;
        otherwise ``None`` (the caller skips the session this tick).
        """
        try:
            tree = self.discovery.session_tree(descriptor, receivers, now=now)
        except DiscoveryUnavailable:
            self.discovery_failures += 1
            cached = self._last_good_trees.get(descriptor.session_id)
            if cached is None:
                return None
            discovered_at, tree = cached
            if now - discovered_at > MAX_TREE_AGE:
                return None
            return tree
        self._last_good_trees[descriptor.session_id] = (now, tree)
        return tree

    def _expire_registrations(self, now: float) -> None:
        """Drop soft state for receivers we have not heard from in a while."""
        ttl = REGISTRATION_TTL_INTERVALS * self.interval
        for sid, table in self.receivers.items():
            for rid in [r for r, e in table.items() if now - e.last_heard > ttl]:
                entry = table.pop(rid)
                key = (sid, rid)
                if self.guard.is_quarantined(key) and self._enforcer is not None:
                    # Lift the tree-level block: the departed receiver's node
                    # may be reused by an honest successor.
                    self._enforcer(sid, entry.register.node, QUARANTINE_LEVEL, False)
                self.guard.forget(key)
                self.registrations_expired += 1

    def _enforce_transitions(self) -> None:
        """Apply the guard's quarantine/release transitions at tree level."""
        for key, kind, _when in self.guard.drain_transitions():
            if self._enforcer is None:
                continue
            entry = self._entry(key)
            if entry is None:
                continue
            self._enforcer(key[0], entry.register.node, QUARANTINE_LEVEL, kind == "quarantined")

    def _suggest(self, key: tuple, entry: ReceiverEntry, level: int, now: float) -> None:
        """Send ``level`` to the receiver and remember it as its last."""
        entry.last_suggested = level
        msg = Suggestion(
            receiver_id=key[1], session_id=key[0], level=level,
            issued_at=now, epoch=self.epoch,
        )
        self._send_to(entry.register.node, entry.register.port, msg, SUGGESTION_SIZE)
        self.suggestions_sent += 1

    # ------------------------------------------------------------------
    def _tick(self, epoch: Optional[int] = None) -> None:
        if not self.active or (epoch is not None and epoch != self.epoch):
            raise StopIteration  # stopped (or superseded by a restart)
        now = self.sched.now
        bus = self.sched.bus
        # The guard has no scheduler reference of its own; hand it the bus so
        # its strike/quarantine/release transitions are observable too.
        self.guard.bus = bus
        prof = self.profiler
        if prof is not None:
            wall0 = perf_counter()
        if bus is not None and bus.wants("ctrl.tick.start"):
            bus.emit(
                "ctrl.tick.start", now,
                controller=self.node.name, epoch=self.epoch,
                registrations=sum(map(len, self.receivers.values())),
            )
        pre_skipped = self.sessions_skipped
        pre_disc_fail = self.discovery_failures
        pre_sent = self.suggestions_sent
        self._expire_registrations(now)
        cutoff = now - self.discovery.staleness
        inputs: List[SessionInput] = []
        audit_trees: Dict[Any, SessionTree] = {}
        audit_reports: Dict[Any, Dict[tuple, Tuple[Report, float]]] = {}
        for sid, descriptor in self.sessions.items():
            table = self.receivers[sid]
            nodes = {rid: entry.register.node for rid, entry in table.items()}
            tree = self._discover_tree(descriptor, nodes, now)
            if tree is None:
                self.sessions_skipped += 1
                continue
            audit_trees[sid] = tree
            audited: Dict[tuple, Tuple[Report, float]] = {}
            audit_reports[sid] = audited
            reports = {}
            for rid, entry in table.items():
                if not entry.history:
                    continue
                key = (sid, rid)
                arrived, latest = entry.history[-1]
                audited[key] = (latest, arrived)
                if self.guard.is_quarantined(key):
                    # Quarantined receivers stay in the tree (and keep being
                    # audited) but their word no longer reaches the algorithm.
                    continue
                rep = entry.report_as_of(cutoff)
                if rep is None:
                    continue
                if self.fence_repairs and self.discovery.disrupted_during(
                    descriptor, entry.register.node, rep.t0, rep.t1
                ):
                    # The window overlaps a repair disruption at this node:
                    # the loss it reports is the detached subtree, not the
                    # network.  Keep the report for auditing, fence it from
                    # the congestion algorithm.
                    self.reports_fenced += 1
                    continue
                reports[rid] = ReceiverReport(
                    receiver_id=rid,
                    loss_rate=rep.loss_rate,
                    bytes=rep.bytes,
                    level=rep.level,
                )
            inputs.append(SessionInput(tree=tree, schedule=descriptor.schedule, reports=reports))
        # Sibling-outlier audit + strike decay/rehabilitation, then push any
        # quarantine transitions down to the multicast trees.
        self.guard.audit(now, audit_reports, audit_trees, fresh_within=2.5 * self.interval)
        self._enforce_transitions()
        suggestions = self.algorithm.update(now, inputs)
        self.last_suggestions = suggestions
        self.updates_run += 1
        want_sugg = bus is not None and bus.wants("ctrl.suggestion")
        suggested_keys = set()
        for (sid, rid), level in suggestions.items():
            key = (sid, rid)
            dest = self._entry(key)
            if dest is None:
                continue
            if self.guard.is_quarantined(key):
                level = min(level, QUARANTINE_LEVEL)
            ceiling = self.session_ceilings.get(sid)
            if ceiling is not None and level > ceiling:
                level = ceiling
                self.suggestions_clamped += 1
            suggested_keys.add(key)
            self._suggest(key, dest, level, now)
            if want_sugg:
                bus.emit(
                    "ctrl.suggestion", now,
                    receiver=rid, session=sid, level=level, quarantined=False,
                )
        # Quarantined receivers the algorithm had nothing to say about are
        # still pinned down explicitly every tick.
        for key in self.guard.quarantined_keys():
            if key in suggested_keys:
                continue
            dest = self._entry(key)
            if dest is None:
                continue
            self._suggest(key, dest, QUARANTINE_LEVEL, now)
            if want_sugg:
                bus.emit(
                    "ctrl.suggestion", now,
                    receiver=key[1], session=key[0], level=QUARANTINE_LEVEL,
                    quarantined=True,
                )
        if prof is not None:
            prof.add("ctrl.tick", perf_counter() - wall0)
        if bus is not None and bus.wants("ctrl.tick.end"):
            bus.emit(
                "ctrl.tick.end", now,
                controller=self.node.name, epoch=self.epoch,
                suggestions=self.suggestions_sent - pre_sent,
                sessions_skipped=self.sessions_skipped - pre_skipped,
                discovery_failures=self.discovery_failures - pre_disc_fail,
                quarantined=len(self.guard.quarantined_keys()),
            )
