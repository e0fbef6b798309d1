"""Network construction and unicast routing.

:class:`Network` owns the node and link objects and computes static
shortest-path unicast routes (Dijkstra, weighted by propagation delay).  The
paper's topologies are small trees, but the implementation is general graphs.

:class:`Network` is also the single owner of shortest-path state.  One
single-source Dijkstra result is kept per queried source for as long as the
routing graph's *structure* stands; every structural mutation (``add_node``,
``add_link``, ``set_link_up``, ``set_node_up``) bumps
:attr:`Network.topology_epoch` and drops the maps.  Nothing outside this
module may add or remove nodes or edges of :attr:`Network.graph` — that is
the one invalidation point (pinned by ``tests/test_path_cache.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import networkx as nx

from .engine import Scheduler
from .link import Link
from .node import Node
from .queues import DropTailQueue

__all__ = ["Network"]


class Network:
    """A set of nodes and links plus routing state.

    Example
    -------
    >>> from repro.simnet.engine import Scheduler
    >>> net = Network(Scheduler())
    >>> _ = net.add_node("a"); _ = net.add_node("b")
    >>> _ = net.add_link("a", "b", bandwidth=1e6, delay=0.2)
    >>> net.build_routes()
    >>> net.node("a").next_hop["b"]
    'b'
    """

    def __init__(self, sched: Scheduler):
        self.sched = sched
        self.nodes: Dict[Any, Node] = {}
        self.links: Dict[Tuple[Any, Any], Link] = {}
        self.graph = nx.DiGraph()
        #: Bumped by every structural change of the routing graph; cached
        #: shortest paths are valid for exactly one epoch.
        self.topology_epoch = 0
        #: source -> (distance per target, node list per target), this epoch.
        self._spt: Dict[Any, Tuple[Dict[Any, float], Dict[Any, list]]] = {}
        #: (a, b, u, v) -> shortest a->b path avoiding link u<->v, this epoch.
        self._detours: Dict[Tuple[Any, Any, Any, Any], Optional[Tuple[Any, ...]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: Any) -> Node:
        """Create a node named ``name`` (must be unique)."""
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(self.sched, name)
        self.nodes[name] = node
        self.graph.add_node(name)
        self._topology_changed()
        return node

    def add_link(
        self,
        a: Any,
        b: Any,
        bandwidth: float,
        delay: float = 0.2,
        queue_limit: int = 64,
        bidirectional: bool = True,
        queue_factory=None,
        link_factory=None,
    ) -> Link:
        """Create a link ``a -> b`` (and ``b -> a`` when ``bidirectional``).

        ``queue_factory`` is an optional zero-argument callable producing a
        queue discipline instance per direction; the default is a drop-tail
        queue of ``queue_limit`` packets.

        ``link_factory`` swaps the link implementation per direction: a
        callable ``(sched, src, dst, bandwidth, delay, queue) -> Link``
        (e.g. a :class:`~repro.simnet.wireless.WirelessEdgeLink` builder).

        Returns the ``a -> b`` direction's :class:`Link`.
        """
        if a not in self.nodes or b not in self.nodes:
            raise KeyError(f"both endpoints must exist: {a!r}, {b!r}")
        if (a, b) in self.links:
            raise ValueError(f"duplicate link {a!r}->{b!r}")

        def make_queue():
            if queue_factory is not None:
                return queue_factory()
            return DropTailQueue(queue_limit)

        make_link = Link if link_factory is None else link_factory
        fwd = make_link(self.sched, self.nodes[a], self.nodes[b], bandwidth, delay, make_queue())
        self.links[(a, b)] = fwd
        self.nodes[a].links[b] = fwd
        self.graph.add_edge(a, b, delay=delay, bandwidth=bandwidth)
        if bidirectional:
            rev = make_link(self.sched, self.nodes[b], self.nodes[a], bandwidth, delay, make_queue())
            self.links[(b, a)] = rev
            self.nodes[b].links[a] = rev
            self.graph.add_edge(b, a, delay=delay, bandwidth=bandwidth)
        self._topology_changed()
        return fwd

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, name: Any) -> Node:
        """Return the node named ``name`` (KeyError if unknown)."""
        return self.nodes[name]

    def link(self, a: Any, b: Any) -> Link:
        """Return the directed link ``a -> b`` (KeyError if unknown)."""
        return self.links[(a, b)]

    def neighbors(self, name: Any) -> Iterable[Any]:
        """Names of nodes directly reachable from ``name``."""
        return self.graph.successors(name)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_link_up(
        self, a: Any, b: Any, up: bool, bidirectional: bool = True
    ) -> List[Tuple[Any, Any]]:
        """Take the link ``a -> b`` (and ``b -> a``) down or bring it up.

        Besides flipping the :class:`Link` transmit state, the corresponding
        edge is removed from (or restored to) the routing graph so that
        :meth:`build_routes` and :meth:`shortest_path` route around the
        failure.  Returns the directed edges actually removed from (or
        restored to) the routing graph, so callers can follow up with
        ``build_routes()`` and an *incremental*
        :meth:`repro.multicast.manager.MulticastManager.on_topology_change`
        — the fault injectors in :mod:`repro.faults` do exactly that.
        """
        pairs = [(a, b)] + ([(b, a)] if bidirectional else [])
        changed: List[Tuple[Any, Any]] = []
        for u, v in pairs:
            link = self.links.get((u, v))
            if link is None:
                raise KeyError(f"unknown link {u!r}->{v!r}")
            if up:
                link.set_up()
                if not self.graph.has_edge(u, v):
                    self.graph.add_edge(u, v, delay=link.delay, bandwidth=link.bandwidth)
                    self._topology_changed()
                    changed.append((u, v))
            else:
                link.set_down()
                if self.graph.has_edge(u, v):
                    self.graph.remove_edge(u, v)
                    self._topology_changed()
                    changed.append((u, v))
        return changed

    def set_node_up(self, name: Any, up: bool) -> List[Tuple[Any, Any]]:
        """Crash or recover a node together with all its incident links.

        Returns the directed routing-graph edges removed/restored, as
        :meth:`set_link_up` does."""
        node = self.nodes[name]
        changed: List[Tuple[Any, Any]] = []
        for (u, v), _link in self.links.items():
            if u == name or v == name:
                changed.extend(self.set_link_up(u, v, up, bidirectional=False))
        if up:
            node.recover()
        else:
            node.crash()
        return changed

    def set_link_bandwidth(self, a: Any, b: Any, bandwidth: float,
                           bidirectional: bool = True) -> None:
        """Change a link's capacity (degradation fault), in both the link
        object and the routing graph's edge attributes.

        Paths are weighted by delay alone, so this is not a structural
        change: :attr:`topology_epoch` and the cached paths stand."""
        pairs = [(a, b)] + ([(b, a)] if bidirectional else [])
        for u, v in pairs:
            self.links[(u, v)].set_bandwidth(bandwidth)
            if self.graph.has_edge(u, v):
                self.graph.edges[u, v]["bandwidth"] = float(bandwidth)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """(Re)compute all-pairs shortest-path next hops, weighted by delay.

        Must be called after topology construction and before traffic starts;
        ties are broken deterministically by neighbor sort order.
        """
        for src_name, node in self.nodes.items():
            node.next_hop.clear()
            # Dijkstra from src to everywhere; paths[dst] is the node list.
            paths = nx.single_source_dijkstra_path(self.graph, src_name, weight="delay")
            for dst_name, path in paths.items():
                if dst_name == src_name or len(path) < 2:
                    continue
                node.next_hop[dst_name] = path[1]

    def _topology_changed(self) -> None:
        """The routing graph gained or lost a node or edge: start a new
        epoch and forget every path computed on the old structure."""
        self.topology_epoch += 1
        self._spt.clear()
        self._detours.clear()

    def _paths_from(self, source: Any) -> Tuple[Dict[Any, float], Dict[Any, list]]:
        """This epoch's ``(distances, paths)`` from ``source`` to every
        reachable node, computed on first use.

        A full single-source run settles nodes in the same order as the
        early-stopping per-target run, so each target's node list — ties
        included — is the one ``nx.dijkstra_path`` would return.
        """
        entry = self._spt.get(source)
        if entry is None:
            entry = self._spt[source] = nx.single_source_dijkstra(
                self.graph, source, weight="delay"
            )
        return entry

    def shortest_path(self, a: Any, b: Any) -> list:
        """Delay-weighted shortest path from ``a`` to ``b`` as a node list
        (a fresh copy: callers may mutate it)."""
        path = self._paths_from(a)[1].get(b)
        if path is None:
            raise nx.NetworkXNoPath(f"No path to {b}.")
        return list(path)

    def shortest_path_or_none(self, a: Any, b: Any) -> Optional[list]:
        """Like :meth:`shortest_path` but ``None`` when no path exists
        (partitioned network after link/node failures)."""
        try:
            path = self._paths_from(a)[1].get(b)
        except nx.NodeNotFound:
            return None
        return None if path is None else list(path)

    def path_delay(self, a: Any, b: Any) -> float:
        """Sum of propagation delays along the shortest path ``a -> b``."""
        delay = self._paths_from(a)[0].get(b)
        if delay is None:
            raise nx.NetworkXNoPath(f"No path to {b}.")
        return delay

    def shortest_path_avoiding(self, a: Any, b: Any, u: Any, v: Any) -> Optional[Tuple[Any, ...]]:
        """Shortest path ``a -> b`` that uses the link between ``u`` and
        ``v`` in neither direction, as an immutable tuple; ``None`` when
        every path needs it.

        The link is hidden from the search, not taken out of the graph, so
        the query leaves the routing graph and the cached paths alone.  The
        answer depends only on the graph, so it is kept for the epoch.
        """
        key = (a, b, u, v)
        if key in self._detours:
            return self._detours[key]

        def weight(x: Any, y: Any, data: Dict[str, Any]) -> Optional[float]:
            if (x == u and y == v) or (x == v and y == u):
                return None
            return data["delay"]

        detour: Optional[Tuple[Any, ...]]
        try:
            detour = tuple(nx.dijkstra_path(self.graph, a, b, weight=weight))
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            detour = None
        self._detours[key] = detour
        return detour

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def total_drops(self) -> int:
        """Total packets dropped at all queues in the network."""
        return sum(l.queue.stats.dropped for l in self.links.values())

    def describe(self) -> str:
        """Human-readable one-line-per-link summary (for examples/CLI)."""
        lines = [f"{len(self.nodes)} nodes, {len(self.links)} directed links"]
        seen = set()
        for (a, b), link in sorted(self.links.items(), key=lambda kv: str(kv[0])):
            if (b, a) in seen:
                continue
            seen.add((a, b))
            lines.append(
                f"  {a} <-> {b}: {link.bandwidth / 1e3:g} Kb/s, "
                f"{link.delay * 1e3:g} ms, q={link.queue.capacity}"
            )
        return "\n".join(lines)
