"""Network construction and unicast routing.

:class:`Network` owns the node and link objects, the routing graph and every
shortest path computed on it (Dijkstra, weighted by propagation delay).  The
paper's topologies are small trees, but the implementation is general graphs.

The routing graph is a private adjacency ``{node: {neighbour: delay}}``
holding exactly the live directed edges, each node's successors in the order
their edges were inserted — a link taken down and restored moves to the back.
:meth:`Network._search` is the one search over it; its tie rule (below) is
what every tree and next hop in the repo is a function of.

One single-source result — ``(distances, paths)`` — is kept per queried
source for as long as the graph's *structure* stands, and it is the only
routing state there is: trees and unicast next hops
(:meth:`Network.next_hop`, the second node of the path) all read it.  A
*stub* — a node with exactly one live successor, such as a host on its
access link — needs no map of its own for unicast: every path out of it
starts with that one edge, so its next hop towards any destination is that
neighbour, provided the neighbour is the destination or its map reaches it.
Every structural mutation (``add_node``, ``add_link``, ``set_link_up``,
``set_node_up``) funnels through :meth:`Network._topology_changed`, which
bumps :attr:`Network.topology_epoch` and drops the maps — nobody has to ask
for routes to be rebuilt.  Nothing outside this module can add or remove
nodes or edges of the adjacency: that is the one invalidation point (pinned
by ``tests/test_path_cache.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count, islice
from typing import Any, Dict, KeysView, List, Optional, Set, Tuple

from .engine import Scheduler
from .link import Link
from .node import Node
from .queues import DropTailQueue

__all__ = ["Network", "NoPathError"]


class NoPathError(Exception):
    """The routing graph as it stands has no path between two nodes (or
    does not contain the node the search starts from)."""


class Network:
    """A set of nodes and links plus routing state.

    Example
    -------
    >>> from repro.simnet.engine import Scheduler
    >>> net = Network(Scheduler())
    >>> for name in "abc": _ = net.add_node(name)
    >>> _ = net.add_link("a", "b", bandwidth=1e6, delay=0.2)
    >>> _ = net.add_link("b", "c", bandwidth=1e6, delay=0.2)
    >>> net.shortest_path("a", "c"), net.path_delay("a", "c")
    (['a', 'b', 'c'], 0.4)
    >>> net.next_hop("a", "c"), net.next_hop("c", "a"), net.next_hop("a", "a")
    ('b', 'b', None)
    """

    def __init__(self, sched: Scheduler):
        self.sched = sched
        self.nodes: Dict[Any, Node] = {}
        self.links: Dict[Tuple[Any, Any], Link] = {}
        #: The routing graph: node -> {successor: delay}, live edges only,
        #: successors in edge-insertion order.
        self._adj: Dict[Any, Dict[Any, float]] = {}
        #: Bumped by every structural change of the routing graph; cached
        #: shortest paths are valid for exactly one epoch.
        self.topology_epoch = 0
        #: source -> (distance per target, node tuple per target), this epoch.
        self._spt: Dict[Any, Tuple[Dict[Any, float], Dict[Any, Tuple[Any, ...]]]] = {}
        #: Directed links :meth:`set_link_up` took down: node recovery
        #: leaves them down.
        self._held_down: Set[Tuple[Any, Any]] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: Any) -> Node:
        """Create a node named ``name`` (must be unique)."""
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(self.sched, name, self)
        self.nodes[name] = node
        self._adj[name] = {}
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
        for pair in [(a, b)] + ([(b, a)] if bidirectional else []):
            if pair in self.links:
                raise ValueError(f"duplicate link {pair[0]!r}->{pair[1]!r}")

        def make_queue():
            if queue_factory is not None:
                return queue_factory()
            return DropTailQueue(queue_limit)

        make_link = Link if link_factory is None else link_factory
        fwd = make_link(self.sched, self.nodes[a], self.nodes[b], bandwidth, delay, make_queue())
        self.links[(a, b)] = fwd
        self.nodes[a].links[b] = fwd
        self._adj[a][b] = fwd.delay
        if bidirectional:
            rev = make_link(self.sched, self.nodes[b], self.nodes[a], bandwidth, delay, make_queue())
            self.links[(b, a)] = rev
            self.nodes[b].links[a] = rev
            self._adj[b][a] = rev.delay
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

    def neighbors(self, name: Any) -> KeysView[Any]:
        """Names of the nodes ``name`` has a live edge to, in the order the
        search visits them (read-only view)."""
        return self._adj[name].keys()

    def has_edge(self, a: Any, b: Any) -> bool:
        """Whether the directed edge ``a -> b`` is in the routing graph
        (the link exists and is up)."""
        return b in self._adj.get(a, ())

    def edge_delay(self, a: Any, b: Any) -> float:
        """Propagation delay of the live edge ``a -> b`` (KeyError if the
        routing graph has no such edge)."""
        return self._adj[a][b]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_link_up(
        self, a: Any, b: Any, up: bool, bidirectional: bool = True
    ) -> List[Tuple[Any, Any]]:
        """Take the link ``a -> b`` (and ``b -> a``) down or bring it up.

        Besides flipping the :class:`Link` transmit state, the corresponding
        edge is removed from (or restored to) the routing graph, so unicast
        next hops and :meth:`shortest_path` route around the failure from
        the next packet or query on.  Returns the directed edges actually
        removed from (or restored to) the routing graph, so callers can
        follow up with an *incremental*
        :meth:`repro.multicast.manager.MulticastManager.on_topology_change`
        — the fault injectors in :mod:`repro.faults` do exactly that.

        A link this call takes down stays down through any crash or
        recovery of its endpoints, until this call brings it up again.
        Bringing it up restores only the directions whose two endpoints are
        alive; the rest return when the crashed node recovers.
        """
        pairs = [(a, b)] + ([(b, a)] if bidirectional else [])
        live = [(u, v) for u, v in pairs
                if not up or (self.nodes[u].alive and self.nodes[v].alive)]
        changed = self._set_edges(live, up)
        (self._held_down.difference_update if up else self._held_down.update)(pairs)
        return changed

    def _set_edges(self, pairs: List[Tuple[Any, Any]], up: bool) -> List[Tuple[Any, Any]]:
        """Flip the directed links ``pairs`` and their routing-graph edges;
        returns the edges actually removed or restored."""
        changed: List[Tuple[Any, Any]] = []
        for u, v in pairs:
            link = self.links.get((u, v))
            if link is None:
                raise KeyError(f"unknown link {u!r}->{v!r}")
            successors = self._adj[u]
            if up:
                link.set_up()
                if v not in successors:
                    successors[v] = link.delay
                    self._topology_changed()
                    changed.append((u, v))
            else:
                link.set_down()
                if v in successors:
                    del successors[v]
                    self._topology_changed()
                    changed.append((u, v))
        return changed

    def set_node_up(self, name: Any, up: bool) -> List[Tuple[Any, Any]]:
        """Crash or recover a node together with its incident links.

        Recovery restores only the links whose far end is alive and that no
        :meth:`set_link_up` call holds down: a link to a node that is still
        crashed stays down until that node recovers.  Returns the directed
        routing-graph edges removed/restored, as :meth:`set_link_up` does."""
        node = self.nodes[name]
        pairs = [
            (u, v) for u, v in self.links
            if name in (u, v) and not (up and (
                (u, v) in self._held_down
                or not self.nodes[v if u == name else u].alive))
        ]
        changed = self._set_edges(pairs, up)
        if up:
            node.recover()
        else:
            node.crash()
        return changed

    def set_link_bandwidth(self, a: Any, b: Any, bandwidth: float,
                           bidirectional: bool = True) -> None:
        """Change a link's capacity (degradation fault).

        Paths are weighted by delay alone, so the routing graph does not
        hear of it: :attr:`topology_epoch` and the cached paths stand."""
        self.links[(a, b)].set_bandwidth(bandwidth)
        if bidirectional:
            self.links[(b, a)].set_bandwidth(bandwidth)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """Compute every non-stub node's shortest-path map now.

        A warm-up, never required: every map is computed on first use, and
        a stub's next hops read its neighbour's.
        """
        for name, successors in self._adj.items():
            if len(successors) != 1:
                self._paths_from(name)

    def next_hop(self, a: Any, b: Any) -> Optional[Any]:
        """The neighbour a unicast packet from ``a`` to ``b`` leaves ``a``
        by, ``None`` when ``b`` is ``a`` or out of reach: the second node
        of this epoch's shortest path.  A stub answers from its neighbour's
        map, so it costs no search of its own."""
        successors = self._adj[a]
        if len(successors) == 1:
            (hop,) = successors
            return hop if b == hop or (b != a and b in self._paths_from(hop)[0]) else None
        path = self._paths_from(a)[1].get(b)
        return path[1] if path is not None and len(path) > 1 else None

    def _topology_changed(self) -> None:
        """The routing graph gained or lost a node or edge: start a new
        epoch and forget every path computed on the old structure."""
        self.topology_epoch += 1
        self._spt.clear()

    def _search(self, source: Any) -> Tuple[Dict[Any, float], Dict[Any, Any]]:
        """Dijkstra from ``source`` over the live edges: ``(distance,
        predecessor)`` per reached node, distances in the order nodes were
        settled.

        **Tie rule.**  Among equal-delay alternatives the winner is decided
        by three things, each the same as in networkx's
        ``_dijkstra_multisource`` (which this replaced, and which
        ``tests/test_routing_core.py`` holds it to, dict order included):
        the fringe pops by ``(distance, push counter)``; a node's
        predecessor changes only on a *strictly* shorter distance; and a
        node's successors are tried in edge-insertion order.
        """
        adj = self._adj
        if source not in adj:
            raise NoPathError(f"Node {source!r} is not in the routing graph.")
        dist: Dict[Any, float] = {}
        pred: Dict[Any, Any] = {}
        seen: Dict[Any, float] = {source: 0}
        pushes = count()
        fringe: List[Tuple[float, int, Any]] = [(0, next(pushes), source)]
        while fringe:
            d, _, v = heappop(fringe)
            if v in dist:
                continue  # a longer, superseded entry of a settled node
            dist[v] = d
            for u, delay in adj[v].items():
                if u in dist:
                    continue
                via_v = d + delay
                if u not in seen or via_v < seen[u]:
                    seen[u] = via_v
                    pred[u] = v
                    heappush(fringe, (via_v, next(pushes), u))
        return dist, pred

    def _paths_from(self, source: Any) -> Tuple[Dict[Any, float], Dict[Any, Tuple[Any, ...]]]:
        """This epoch's ``(distances, paths)`` from ``source`` to every
        reachable node, computed on first use (:class:`NoPathError` when
        ``source`` is not in the graph).

        A full single-source run settles nodes in the same order as a run
        that stops at one target, so each target's node tuple — ties
        included — is the one a per-target search would return.
        """
        entry = self._spt.get(source)
        if entry is None:
            dist, pred = self._search(source)
            paths = {source: (source,)}
            for node in islice(dist, 1, None):  # settle order: parents first
                paths[node] = paths[pred[node]] + (node,)
            entry = self._spt[source] = (dist, paths)
        return entry

    def shortest_path(self, a: Any, b: Any) -> list:
        """Delay-weighted shortest path from ``a`` to ``b`` as a node list
        (a fresh copy: callers may mutate it); :class:`NoPathError` when
        there is none."""
        path = self._paths_from(a)[1].get(b)
        if path is None:
            raise NoPathError(f"No path from {a!r} to {b!r}.")
        return list(path)

    def shortest_path_or_none(self, a: Any, b: Any) -> Optional[list]:
        """Like :meth:`shortest_path` but ``None`` when no path exists
        (partitioned network after link/node failures)."""
        path = self.cached_path(a, b)
        return None if path is None else list(path)

    def cached_path(self, a: Any, b: Any) -> Optional[Tuple[Any, ...]]:
        """Like :meth:`shortest_path_or_none`, but the path this epoch's map
        holds, not a copy: an immutable tuple, so every caller can share it.
        All of one source's paths come from one search, so the path to any
        node on it is a prefix of it."""
        try:
            return self._paths_from(a)[1].get(b)
        except NoPathError:
            return None

    def path_delay(self, a: Any, b: Any) -> float:
        """Sum of propagation delays along the shortest path ``a -> b``."""
        delay = self._paths_from(a)[0].get(b)
        if delay is None:
            raise NoPathError(f"No path from {a!r} to {b!r}.")
        return delay

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
