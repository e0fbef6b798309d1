"""A lightweight publish/subscribe event bus for simulation telemetry.

Components that can see the scheduler publish through ``sched.bus`` — an
:class:`EventBus` or ``None``.  Every emit site is guarded by an
``if bus is not None`` check, so an unobserved simulation pays one attribute
load per site and nothing else; this is what keeps instrumented runs within
the perf budget when nobody is listening.

Topics are dot-separated strings (``"link.drop"``, ``"ctrl.tick.end"``).
Subscriptions match an exact topic, a ``"prefix.*"`` pattern (any topic
under ``prefix.``) or ``"*"`` (everything).  Matching is resolved once per
topic and cached, so a busy topic costs one dict lookup per emit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Tuple

__all__ = [
    "BusEvent",
    "EventBus",
    "TOPIC_REGISTRY",
    "TopicSpec",
    "default_record_patterns",
    "render_topic_table",
    "topic_is_known",
    "topic_names",
]

Subscriber = Callable[["BusEvent"], Any]


class TopicSpec(NamedTuple):
    """One canonical event topic: name, emitting module, payload shape.

    A trailing ``.*`` in ``name`` declares a dynamic-suffix family
    (``fault.<kind>`` carries injector-defined kinds).
    """

    name: str
    emitted_by: str
    payload: str


#: The canonical event taxonomy.  Every ``bus.emit``/``log_event`` topic and
#: literal subscription pattern in the tree must resolve to an entry here,
#: every entry must be emitted, and the DESIGN.md §10 table must equal
#: :func:`render_topic_table` — all held by ``tests/test_source_rules.py``.
TOPIC_REGISTRY: Tuple[TopicSpec, ...] = (
    TopicSpec("sched.dispatch", "simnet/engine.py",
              "`seq`, `fn` — one per scheduler event (firehose; off by default)"),
    TopicSpec("link.drop", "simnet/link.py",
              "`link`, `reason` (`queue_full` \\| `link_down` \\| `wireless`; "
              "the closed `DROP_REASONS` set), `kind`, `size`"),
    TopicSpec("link.down", "simnet/link.py", "`link`, `flushed`"),
    TopicSpec("link.up", "simnet/link.py", "`link`, `utilization`"),
    TopicSpec("link.sample", "run recorder",
              "per-link utilisation/drops row, every `sample_interval`"),
    TopicSpec("recv.join", "media/receiver.py",
              "`receiver`, `session`, `level`, `previous`"),
    TopicSpec("recv.leave", "media/receiver.py",
              "`receiver`, `session`, `level`, `previous`"),
    TopicSpec("ctrl.register", "control/agent.py",
              "accepted registration (`receiver`, `session`, `node`)"),
    TopicSpec("ctrl.report", "control/agent.py",
              "accepted report (`receiver`, `session`, `loss`, `level`)"),
    TopicSpec("ctrl.tick.start", "control/agent.py",
              "`controller`, `epoch`, `registrations`"),
    TopicSpec("ctrl.tick.end", "control/agent.py",
              "per-tick deltas (`suggestions`, `sessions_skipped`, "
              "`discovery_failures`, `quarantined`)"),
    TopicSpec("ctrl.suggestion", "control/agent.py",
              "`node`, `session`, `level`, `quarantined`"),
    TopicSpec("guard.strike", "control/guard.py",
              "`receiver`, `session`, `reason`, `strikes`"),
    TopicSpec("guard.quarantine", "control/guard.py",
              "`receiver`, `session`, `reason`, `strikes`"),
    TopicSpec("guard.release", "control/guard.py",
              "`receiver`, `session`, `reason`, `strikes`"),
    TopicSpec("tree.build", "multicast/manager.py",
              "one group re-cut onto new edges (`group`, `edges`, `members`)"),
    TopicSpec("tree.repair.rebuild", "multicast/manager.py",
              "a topology change rebuilt the group's tree (`group`, "
              "`edges_removed`, `edges_added`, `orphans`)"),
    TopicSpec("tree.orphan", "multicast/manager.py",
              "a member's tree connectivity changed (`group`, `node`, `lost`)"),
    TopicSpec("fault.*", "faults/injectors.py",
              "a fault fired (`detail`; dynamic kind suffix)"),
    TopicSpec("federation.summary", "federation/coordinator.py",
              "one domain's aggregate reached the coordinator (`domain`, "
              "`session`, `receivers`, `mean_loss`, `min_level`, "
              "`max_level`, `bottleneck_bps`)"),
    TopicSpec("federation.suggestion", "federation/coordinator.py",
              "merged session-level layer advice (`session`, `ceiling`, "
              "`floor`, `receivers`, `domains`)"),
    TopicSpec("federation.round", "federation/session.py",
              "one lockstep round completed (`round`, `domains`, "
              "`summaries`)"),
    TopicSpec("federation.retry", "federation/session.py",
              "summary send attempt repeated after an unacknowledged "
              "attempt (`domain`, `session`, `attempt`, `backoff_s`)"),
    TopicSpec("federation.timeout", "federation/session.py",
              "summary exchange exhausted its retry budget this round "
              "(`domain`, `session`, `attempts`)"),
    TopicSpec("federation.failover", "federation/session.py",
              "standby coordinator promoted with a bumped fencing epoch "
              "(`old_epoch`, `new_epoch`, `resumed`, `round`)"),
    TopicSpec("federation.stale", "federation/coordinator.py + shard.py",
              "stale federation state handled (`tier`, `reason`: "
              "coordinator `stale_round` drop, shard `stale_epoch`/"
              "`stale_round` advice rejection, or shard `decay` ceiling "
              "clamp past the staleness budget)"),
    TopicSpec("workload.join", "workloads/runner.py",
              "a workload receiver came alive (`receiver`, `session`, "
              "`n_live`)"),
    TopicSpec("workload.leave", "workloads/runner.py",
              "a workload receiver departed (`receiver`, `session`, "
              "`n_live`)"),
    TopicSpec("workload.sample", "workloads/runner.py",
              "periodic crowd sample (`n_live`, `control_bytes`, `joins`, "
              "`leaves`)"),
)


def topic_names() -> Tuple[str, ...]:
    """All canonical topic names (wildcard families included), in order."""
    return tuple(s.name for s in TOPIC_REGISTRY)


def topic_is_known(topic: str) -> bool:
    """True if ``topic`` resolves against the canonical registry.

    ``topic`` may itself be a dynamic-family prefix ending in ``.`` (the
    literal head of an f-string emit site): it is known when at least one
    registry name starts with that prefix.
    """
    for name in topic_names():
        if name.endswith(".*"):
            if topic == name or topic.startswith(name[:-1]):
                return True
        elif topic == name or (topic.endswith(".") and name.startswith(topic)):
            return True
    return False


def default_record_patterns() -> Tuple[str, ...]:
    """Subscription patterns covering every registered topic family.

    One ``"<prefix>.*"`` per distinct first topic segment, sorted, minus
    ``sched`` — the derivation behind ``RunRecorder.DEFAULT_TOPICS``
    (everything except the per-event ``sched.dispatch`` firehose).
    """
    prefixes = {n.split(".", 1)[0] for n in topic_names()}
    return tuple(f"{p}.*" for p in sorted(prefixes - {"sched"}))


def render_topic_table() -> str:
    """The DESIGN.md §10 taxonomy table, one markdown row per topic."""
    lines = ["| topic | emitted by | payload |", "|---|---|---|"]
    for s in TOPIC_REGISTRY:
        lines.append(f"| `{s.name}` | {s.emitted_by} | {s.payload} |")
    return "\n".join(lines)


class BusEvent:
    """One typed, timestamped occurrence: ``(time, topic, data)``."""

    __slots__ = ("time", "topic", "data")

    def __init__(self, time: float, topic: str, data: Dict[str, Any]) -> None:
        self.time = time
        self.topic = topic
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BusEvent t={self.time:.4f} {self.topic} {self.data}>"


class EventBus:
    """Topic-filtered fan-out of :class:`BusEvent` objects."""

    def __init__(self) -> None:
        # pattern -> subscribers, in subscription order
        self._subs: Dict[str, List[Subscriber]] = {}
        # topic -> resolved subscriber tuple (invalidated on (un)subscribe)
        self._routes: Dict[str, Tuple[Subscriber, ...]] = {}

    # ------------------------------------------------------------------
    def subscribe(self, pattern: str, fn: Subscriber) -> Subscriber:
        """Deliver events matching ``pattern`` to ``fn``; returns ``fn``.

        ``pattern`` is an exact topic, ``"prefix.*"`` or ``"*"``.
        """
        if not pattern:
            raise ValueError("pattern must be non-empty")
        if "*" in pattern and pattern != "*" and not pattern.endswith(".*"):
            raise ValueError(f"wildcard only allowed as '*' or 'prefix.*', got {pattern!r}")
        self._subs.setdefault(pattern, []).append(fn)
        self._routes.clear()
        return fn

    def unsubscribe(self, pattern: str, fn: Subscriber) -> None:
        """Remove one subscription; unknown pairs are ignored."""
        subs = self._subs.get(pattern)
        if subs and fn in subs:
            subs.remove(fn)
            if not subs:
                del self._subs[pattern]
            self._routes.clear()

    # ------------------------------------------------------------------
    def _resolve(self, topic: str) -> Tuple[Subscriber, ...]:
        matched: List[Subscriber] = []
        for pattern, subs in self._subs.items():
            if pattern == topic or pattern == "*" or (
                pattern.endswith(".*") and topic.startswith(pattern[:-1])
            ):
                matched.extend(subs)
        route = tuple(matched)
        self._routes[topic] = route
        return route

    def wants(self, topic: str) -> bool:
        """True if at least one subscriber would receive ``topic``.

        Emit sites inside per-event hot loops hoist this check so that an
        attached-but-uninterested bus costs nothing per event.
        """
        if not self._subs:
            return False
        route = self._routes.get(topic)
        if route is None:
            route = self._resolve(topic)
        return bool(route)

    def emit(self, topic: str, time: float, **data: Any) -> None:
        """Publish ``topic`` at simulated ``time`` with keyword payload."""
        if not self._subs:
            return
        route = self._routes.get(topic)
        if route is None:
            route = self._resolve(topic)
        if not route:
            return
        ev = BusEvent(time, topic, data)
        for fn in route:
            fn(ev)
