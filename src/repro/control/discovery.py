"""Topology-discovery tool (mtrace/SNMP stand-in).

The paper's architecture assumes "the existence of a tool which discovers the
multicast tree topology in the local domain" and deliberately abstracts *how*
(mtrace, SNMP, mrtree...).  The only property its evaluation varies is the
**staleness** of the information (Fig. 10: 2–18 seconds old).

:class:`TopologyDiscovery` models exactly that contract: it answers "what was
session S's tree" from the :class:`~repro.multicast.manager.MulticastManager`
edge-toggle log, ``staleness`` seconds in the past.  Staleness zero is the
instantaneous-information premise the paper calls "clearly unrealistic" but
uses as the baseline.  A tool's staleness is fixed when it is made: the
controller stales loss reports by the same amount and keeps only the reports
a cutoff ``now - staleness`` can still select, which holds only while the
cutoff never moves back.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple

from ..core.session_topology import SessionTree
from ..multicast.manager import MulticastManager
from .session import SessionDescriptor

__all__ = ["DiscoveryUnavailable", "TopologyDiscovery"]


class DiscoveryUnavailable(RuntimeError):
    """The discovery tool timed out / is unreachable (injected fault).

    The controller agent catches this and falls back to its last-known-good
    tree (age-bounded), or skips the session for the tick."""


class TopologyDiscovery:
    """Serves (possibly stale) session-tree snapshots to the controller.

    Parameters
    ----------
    mcast:
        The multicast manager holding ground-truth tree history.
    staleness:
        Age, in seconds, of the topology information returned.  The paper
        sweeps 2..18 s in Fig. 10.  Read-only after construction.
    domain:
        Optional set of node names this controller's domain covers (paper
        §II: "the controller agent is concerned only with the topology in
        its domain").  When given, discovered trees are clipped to edges
        inside the domain and re-rooted at the node where the session
        enters it; receivers outside the domain are invisible.
    """

    def __init__(
        self,
        mcast: MulticastManager,
        staleness: float = 0.0,
        domain: Optional[set] = None,
    ) -> None:
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        self.mcast = mcast
        self._staleness = staleness
        self.domain = frozenset(domain) if domain is not None else None
        self.queries = 0
        #: False while an injected fault makes every query time out (raise
        #: :class:`DiscoveryUnavailable`).
        self.available = True
        self.failed_queries = 0

    @property
    def staleness(self) -> float:
        """Age, in seconds, of the information served (read-only)."""
        return self._staleness

    # ------------------------------------------------------------------
    def session_tree(
        self,
        descriptor: SessionDescriptor,
        receiver_nodes: Iterable[Any],
        now: Optional[float] = None,
    ) -> SessionTree:
        """Discover the session tree as of ``now - staleness``.

        ``receiver_nodes`` are the distinct nodes of the session's
        registered receivers, in order; they become the tree's leaves, in
        that order.  A node not in the discovered tree (e.g. its join
        postdates the snapshot) is omitted — the controller simply does not
        see it yet, exactly as with a real stale discovery tool.
        """
        if now is None:
            now = self.mcast.sched.now
        self.queries += 1
        if not self.available:
            self.failed_queries += 1
            raise DiscoveryUnavailable(
                f"discovery timed out for session {descriptor.session_id!r}"
            )
        at = max(now - self.staleness, 0.0)
        layer_edges = []
        for group in descriptor.groups:
            # A group with no snapshot history at ``at`` (e.g. created by a
            # failed-over controller's registration before the source ran)
            # contributes an empty layer rather than raising.
            edges = self.mcast.snapshot_at(group, at)
            if self.domain is not None:
                edges = frozenset(
                    (u, v) for u, v in edges
                    if u in self.domain and v in self.domain
                )
            layer_edges.append(edges)
        root = descriptor.source
        if self.domain is not None and root not in self.domain:
            root = self._entry_node(layer_edges)
            if root is None:
                # The session does not reach this domain (yet).
                return SessionTree(descriptor.session_id, descriptor.source, [], ())
            # Keep only the component hanging below the chosen entry (a
            # domain covering several disjoint subtrees yields several
            # candidate entries; this controller manages one of them).
            layer_edges = [self._reachable_from(root, edges) for edges in layer_edges]
        tree_nodes = {root}
        for edges in layer_edges:
            for u, v in edges:
                tree_nodes.add(u)
                tree_nodes.add(v)
        # Clipped edges and the entry node lie inside the domain, so every
        # tree node does.
        return SessionTree.from_layer_snapshots(
            descriptor.session_id, root, layer_edges,
            [node for node in receiver_nodes if node in tree_nodes],
        )

    # ------------------------------------------------------------------
    # Repair-awareness (used when the controller fences repair windows)
    # ------------------------------------------------------------------
    def disrupted_during(
        self, descriptor: SessionDescriptor, node: Any, t0: float, t1: float
    ) -> bool:
        """Was ``node`` detached from any of the session's layer trees at
        some point during ``[t0, t1]``?  Ground truth from the manager's
        disruption windows; the controller uses it to fence loss reports
        measured across a repair."""
        return any(
            self.mcast.node_disrupted_during(group, node, t0, t1)
            for group in descriptor.groups
        )

    @staticmethod
    def _entry_node(layer_edges: Iterable[Iterable[Tuple[Any, Any]]]) -> Optional[Any]:
        """The node where the session enters the domain: an in-domain edge
        head that no in-domain edge points to (ties broken by name)."""
        heads = set()
        tails = set()
        for edges in layer_edges:
            for u, v in edges:
                heads.add(u)
                tails.add(v)
        candidates = heads - tails
        if not candidates:
            return None
        return min(candidates, key=str)

    @staticmethod
    def _reachable_from(root: Any, edges: Iterable[Tuple[Any, Any]]) -> frozenset:
        """Edges of the subtree reachable from ``root``."""
        children = {}
        for u, v in edges:
            children.setdefault(u, []).append(v)
        keep = set()
        stack = [root]
        while stack:
            u = stack.pop()
            for v in children.get(u, ()):
                keep.add((u, v))
                stack.append(v)
        return frozenset(keep)
