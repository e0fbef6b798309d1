"""The controller's internal image of a multicast session.

TopoSense never touches the real network: it works on graphs assembled from
topology-discovery snapshots and receiver reports (paper §III: "All actions
performed by TopoSense are on this internal image of the multicast tree
topologies").  A :class:`SessionTree` is the overlay of the per-layer
distribution trees of one session; because layers are cumulative the overlay
is itself a tree, rooted at the source.  The tree names its leaves, never
receivers: which receiver speaks for a leaf is the control agent's decision.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = ["SessionTree"]

Edge = Tuple[Any, Any]


class SessionTree:
    """Rooted tree describing one session's reach inside the domain.

    Parameters
    ----------
    session_id:
        Identifier of the session.
    root:
        The source node (or the point where the session enters the domain).
    edges:
        Directed parent->child edges.  They must form a tree rooted at
        ``root``.
    leaves:
        The nodes where the session has receivers, in the order the
        controller first heard of a receiver at each (usually leaves of the
        tree; a receiver on a forwarding node makes that node one too).
        Tree leaves without receivers are allowed (they are routers whose
        downstream hosts sit outside the discovered region) but contribute
        no loss information.
    """

    def __init__(
        self,
        session_id: Any,
        root: Any,
        edges: Iterable[Edge],
        leaves: Iterable[Any],
    ) -> None:
        self.session_id = session_id
        self.root = root
        self.edges: FrozenSet[Edge] = frozenset(edges)
        self.parent: Dict[Any, Any] = {}
        children: Dict[Any, List[Any]] = {}
        for u, v in self.edges:
            if v in self.parent:
                raise ValueError(f"node {v!r} has two parents: not a tree")
            if v == root:
                raise ValueError("root cannot have a parent")
            self.parent[v] = u
            children.setdefault(u, []).append(v)
        for u in children.values():
            u.sort(key=str)  # deterministic iteration order
        self.children: Dict[Any, Tuple[Any, ...]] = {
            u: tuple(v) for u, v in children.items()
        }
        # BFS from the root; also validates connectivity.
        order: List[Any] = []
        q = deque([root])
        seen = {root}
        while q:
            u = q.popleft()
            order.append(u)
            for v in self.children.get(u, ()):
                if v in seen:
                    raise ValueError(f"cycle detected at {v!r}")
                seen.add(v)
                q.append(v)
        unreachable = ({root} | set(self.parent)) - seen
        if unreachable:
            raise ValueError(f"nodes not reachable from root: {sorted(map(str, unreachable))}")
        self._topdown: Tuple[Any, ...] = tuple(order)
        self.leaves: Tuple[Any, ...] = tuple(leaves)
        bad = [n for n in self.leaves if n not in seen]
        if bad:
            raise ValueError(f"leaves on unknown nodes: {bad}")

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Any, ...]:
        """All nodes in breadth-first (top-down) order, root first."""
        return self._topdown

    def topdown(self) -> Tuple[Any, ...]:
        """Nodes ordered so every parent precedes its children."""
        return self._topdown

    def bottomup(self) -> Tuple[Any, ...]:
        """Nodes ordered so every child precedes its parent."""
        return tuple(reversed(self._topdown))

    def is_leaf(self, node: Any) -> bool:
        """True when ``node`` has no children in this session tree."""
        return not self.children.get(node)

    def incoming_edge(self, node: Any) -> Optional[Edge]:
        """The (parent, node) edge, or None for the root."""
        p = self.parent.get(node)
        return None if p is None else (p, node)

    def path_from_root(self, node: Any) -> List[Any]:
        """Node list from the root down to ``node`` inclusive."""
        path = [node]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        path.reverse()
        return path

    # ------------------------------------------------------------------
    @classmethod
    def from_layer_snapshots(
        cls,
        session_id: Any,
        root: Any,
        layer_edges: Sequence[Iterable[Edge]],
        leaves: Iterable[Any],
    ) -> "SessionTree":
        """Overlay per-layer distribution trees into a session tree.

        ``layer_edges[i]`` is the edge set of layer ``i+1``'s tree.  Because
        layers are cumulative, layer 1's tree spans every other layer's tree,
        and the overlay (the union of the layers' edges) equals layer 1's
        tree.
        """
        return cls(session_id, root, {e for edges in layer_edges for e in edges}, leaves)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SessionTree {self.session_id} root={self.root!r} "
            f"{len(self._topdown)} nodes, {len(self.leaves)} leaves>"
        )
