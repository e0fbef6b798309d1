"""Span tracing of the simulator, recorded from outside the program.

Nothing under ``src/`` knows about this module.  :func:`install` swaps the
public cross-layer entry points listed in :data:`ENTRY_POINTS` for timed
wrappers *at class level* and replaces ``Scheduler.at`` so that every
scheduled callback opens a span named after the package that owns it
(``repro.simnet.link`` -> ``link``, ...).  :func:`uninstall` restores every
original attribute.

A span has a name, a duration and a *cause*: for a direct call the span it
was called from, for a scheduled callback the span that scheduled it (so the
deferred tree rebuild a ``MulticastManager.join`` schedules is still booked
to the join).  Spans are kept in memory, aggregated per ``(name, cause)``,
and written out by the harness when the run ends; a run of 10^6 events
opens ~10^7 spans, which is why they are not kept one by one.

Self time is a span's duration minus the part its child spans cover, so the
self times of all spans sum to the duration of the root span: the books
close by construction and :meth:`Tracer.layer_self` is the per-layer split.
The wrappers' own cost falls on whichever span they run inside; the harness
reports it as ``trace.overhead_frac`` (traced wall vs untraced wall).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ENTRY_POINTS", "LAYERS", "Tracer", "install", "layer_of_module", "uninstall"]

#: Module prefix -> layer, first match wins.  Layers are this repo's packages.
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.simnet.engine", "sched"),
    ("repro.simnet.link", "link"),
    ("repro.simnet.queues", "link"),
    ("repro.simnet.wireless", "link"),
    ("repro.simnet.node", "node"),
    ("repro.simnet.topology", "node"),
    ("repro.media", "media"),
    ("repro.multicast", "multicast"),
    ("repro.control", "control"),
    ("repro.core", "core"),
    ("repro.federation", "federation"),
    ("repro.workloads", "workloads"),
    ("repro.faults", "faults"),
)

#: Every layer a span can be booked to.  ``bench`` is the harness's root span
#: (its self time is ``Scenario.run``'s preamble); ``other`` is code owned by
#: no layer above.  Both count as unattributed.
LAYERS = ("sched", "link", "node", "media", "multicast", "control", "core",
          "federation", "workloads", "faults", "bench", "other")

#: ``(module, class, method, span name)`` — the public entry points timed
#: from outside.  Tree builders are added per concrete class at install time,
#: and ``DomainShard.run_to`` as ``federation.shard_run.<domain>`` (one span
#: name per shard: the imbalance metric needs the split).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.simnet.engine", "Scheduler", "run", "sched.run"),
    ("repro.simnet.link", "Link", "send", "link.send"),
    ("repro.simnet.node", "Node", "receive", "node.receive"),
    ("repro.simnet.node", "Node", "send", "node.send"),
    ("repro.simnet.topology", "Network", "shortest_path_or_none", "node.spt"),
    ("repro.simnet.topology", "Network", "shortest_path", "node.spt"),
    ("repro.simnet.topology", "Network", "path_delay", "node.spt"),
    ("repro.simnet.topology", "Network", "build_routes", "node.routes"),
    ("repro.multicast.manager", "MulticastManager", "join", "multicast.join"),
    ("repro.multicast.manager", "MulticastManager", "leave", "multicast.leave"),
    ("repro.multicast.manager", "MulticastManager", "set_blocked", "multicast.set_blocked"),
    ("repro.multicast.manager", "MulticastManager", "on_topology_change", "multicast.repair"),
    ("repro.multicast.manager", "MulticastManager", "snapshot_at", "multicast.snapshot"),
    ("repro.control.discovery", "TopologyDiscovery", "session_tree", "control.discovery"),
    ("repro.control.guard", "ReportGuard", "audit", "control.guard.audit"),
    ("repro.control.guard", "ReportGuard", "admit_report", "control.guard.admit"),
    ("repro.control.guard", "ReportGuard", "admit_register", "control.guard.admit"),
    ("repro.core.toposense", "TopoSense", "update", "core.update"),
    ("repro.federation.session", "FederatedSession", "run", "federation.run"),
    ("repro.federation.shard", "DomainShard", "summaries", "federation.exchange.summaries"),
    ("repro.federation.shard", "DomainShard", "deliver_advice", "federation.exchange.advice"),
    ("repro.federation.shard", "DomainShard", "roll_staleness", "federation.exchange.staleness"),
    ("repro.federation.coordinator", "FederationCoordinator", "receive", "federation.exchange.receive"),
    ("repro.federation.coordinator", "FederationCoordinator", "merge", "federation.exchange.merge"),
    ("repro.federation.channel", "InterDomainChannel", "send_up", "federation.exchange.channel"),
    ("repro.federation.channel", "InterDomainChannel", "send_down", "federation.exchange.channel"),
    ("repro.federation.channel", "InterDomainChannel", "due", "federation.exchange.channel"),
    ("repro.workloads.runner", "WorkloadRunner", "summary", "workloads.summary"),
)

_BUILDER_METHODS = {
    "build": "multicast.build",
    "repair": "multicast.patch",
    "precompute": "multicast.precompute",
}


def layer_of_module(module: Optional[str]) -> str:
    """The layer owning ``module`` (``other`` when no layer claims it)."""
    if module:
        for prefix, layer in _LAYER_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


class Tracer:
    """In-memory span table with a span stack for self-time accounting."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        #: Open spans, innermost last: ``[name, seconds covered by children]``.
        self.stack: List[List[Any]] = []
        #: ``(name, cause) -> [count, total seconds, self seconds]``.
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        self._names: Dict[Any, Optional[str]] = {}
        self._handlers: Dict[Tuple[Any, int, Any], Callable[..., Any]] = {}
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, cause: Optional[str], fn: Callable[..., Any],
             *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span; ``cause=None`` means the enclosing span."""
        stack = self.stack
        if cause is None:
            cause = stack[-1][0] if stack else ""
        frame = [name, 0.0]
        stack.append(frame)
        clock = self.clock
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = clock() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dur
            rec = self.spans.get((name, cause))
            if rec is None:
                self.spans[(name, cause)] = [1, dur, dur - frame[1]]
            else:
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A function that runs ``fn`` inside a ``name`` span on every call."""
        span = self.span

        def traced(*args: Any, **kwargs: Any) -> Any:
            return span(name, None, fn, *args, **kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.bench_span = name  # type: ignore[attr-defined]
        return traced

    def callback_name(self, fn: Any, kind: str = "cb") -> Optional[str]:
        """Span name for a callback: ``<layer>.<kind>.<OwningClass>``, where
        ``kind`` is ``cb`` (scheduled), ``port`` or ``group`` (packet handlers).

        ``None`` means "leave it alone": the callable is already a traced
        entry point (``Node.receive`` scheduled by a link) or one of the
        scheduler's own trampolines, whose payload is traced separately.
        """
        func = getattr(fn, "__func__", None)
        owner = getattr(fn, "__self__", None)
        bound = func is not None and owner is not None
        cache_key = (type(owner), func, kind) if bound else (getattr(fn, "__code__", type(fn)), kind)
        try:
            return self._names[cache_key]
        except KeyError:
            pass
        if getattr(func if bound else fn, "bench_span", None) is not None:
            name: Optional[str] = None
        else:
            if bound:
                module, label = type(owner).__module__, type(owner).__name__
            else:
                module = getattr(fn, "__module__", None)
                label = getattr(fn, "__qualname__", type(fn).__name__).split(".")[0]
            layer = layer_of_module(module)
            name = None if layer == "sched" else f"{layer}.{kind}.{label}"
        self._names[cache_key] = name
        return name

    def reset(self) -> None:
        """Forget the spans recorded so far (set-up), keep the wrappers."""
        self.spans.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def total(self, name: str, cause: Optional[str] = None) -> float:
        """Seconds inside spans called ``name`` or ``name.*`` (inclusive of
        children), optionally only those caused by ``cause`` / ``cause.*``."""
        return sum(rec[1] for key, rec in self.spans.items() if _match(key, name, cause))

    def count(self, name: str, cause: Optional[str] = None) -> int:
        """Number of spans matching as in :meth:`total`."""
        return int(sum(rec[0] for key, rec in self.spans.items() if _match(key, name, cause)))

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer; the values sum to the root span's duration."""
        out = {layer: 0.0 for layer in LAYERS}
        for (name, _cause), rec in self.spans.items():
            out[name.split(".", 1)[0]] += rec[2]
        return out

    def table(self) -> List[Dict[str, Any]]:
        """The span table as JSON-friendly rows, largest self time first."""
        rows = [
            {"name": name, "cause": cause, "count": int(rec[0]),
             "total_ms": rec[1] * 1e3, "self_ms": rec[2] * 1e3}
            for (name, cause), rec in self.spans.items()
        ]
        rows.sort(key=lambda r: (-r["self_ms"], r["name"], r["cause"]))
        return rows


def _match(key: Tuple[str, str], name: str, cause: Optional[str]) -> bool:
    span_name, span_cause = key
    if span_name != name and not span_name.startswith(name + "."):
        return False
    return cause is None or span_cause == cause or span_cause.startswith(cause + ".")


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _patch(tracer: Tracer, owner: Any, attr: str, value: Any) -> None:
    tracer._saved.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def install(tracer: Tracer) -> None:
    """Swap in the timed wrappers.  Pair with :func:`uninstall`."""
    import importlib

    if tracer._saved:
        raise RuntimeError("tracer already installed")
    for module, cls_name, method, name in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        _patch(tracer, cls, method, tracer.wrap(name, cls.__dict__[method]))

    builders = importlib.import_module("repro.multicast.builders")
    for cls in vars(builders).values():
        if isinstance(cls, type) and issubclass(cls, builders.TreeBuilder):
            for method, name in _BUILDER_METHODS.items():
                if method in cls.__dict__:
                    _patch(tracer, cls, method, tracer.wrap(name, cls.__dict__[method]))

    from repro.federation.shard import DomainShard
    from repro.simnet.engine import Scheduler
    from repro.simnet.node import Node

    span, callback_name, stack = tracer.span, tracer.callback_name, tracer.stack
    orig_run_to = DomainShard.__dict__["run_to"]
    orig_at = Scheduler.__dict__["at"]
    orig_every = Scheduler.__dict__["every"]
    orig_bind = Node.__dict__["bind_port"]
    orig_add = Node.__dict__["add_group_handler"]
    orig_remove = Node.__dict__["remove_group_handler"]
    handlers = tracer._handlers

    def run_to(self: Any, t: float) -> None:
        span(f"federation.shard_run.{self.domain}", None, orig_run_to, self, t)

    def at(self: Any, time: float, fn: Any, *args: Any) -> Any:
        name = callback_name(fn)
        if name is None:
            return span("sched.at", None, orig_at, self, time, fn, *args)
        cause = stack[-1][0] if stack else ""
        return span("sched.at", None, orig_at, self, time, span, name, cause, fn, *args)

    def every(self: Any, interval: float, fn: Any, *args: Any, **kwargs: Any) -> Any:
        # Scheduler.every reschedules its own trampoline; time the payload.
        name = callback_name(fn)
        if name is not None:
            fn = tracer.wrap(name, fn)
        return orig_every(self, interval, fn, *args, **kwargs)

    def bind_port(self: Any, port: str, handler: Any) -> None:
        name = callback_name(handler, "port")
        orig_bind(self, port, handler if name is None else tracer.wrap(name, handler))

    def add_group_handler(self: Any, group: int, handler: Any) -> None:
        name = callback_name(handler, "group")
        if name is not None:
            traced = tracer.wrap(name, handler)
            handlers[(self, group, handler)] = traced
            handler = traced
        orig_add(self, group, handler)

    def remove_group_handler(self: Any, group: int, handler: Any) -> None:
        orig_remove(self, group, handlers.pop((self, group, handler), handler))

    _patch(tracer, DomainShard, "run_to", run_to)
    _patch(tracer, Scheduler, "at", at)
    _patch(tracer, Scheduler, "every", every)
    _patch(tracer, Node, "bind_port", bind_port)
    _patch(tracer, Node, "add_group_handler", add_group_handler)
    _patch(tracer, Node, "remove_group_handler", remove_group_handler)


def uninstall(tracer: Tracer) -> None:
    """Restore every attribute :func:`install` replaced."""
    while tracer._saved:
        owner, attr, original = tracer._saved.pop()
        setattr(owner, attr, original)
    tracer._handlers.clear()
