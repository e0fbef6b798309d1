"""Distribution-tree construction and local repair.

The paper treats the multicast tree as *given*: the shortest-path tree
DVMRP/PIM converge to, which the controller exploits whatever its shape.
The related SDN-multicast line (per-link protected trees) adds local repair.
A :class:`TreeBuilder` turns ``(source, members, network)`` into a directed
edge set, and optionally heals a damaged tree *locally* — returning the
healed edge set — instead of a global rebuild.  Builders see a source, a
member set or a tree, and the network: the manager builds one tree per
source over the members of all its groups and cuts each group's tree from
it, so builders know nothing of groups.

There is one walk for trees, :func:`graft`: a member's cached shortest path
walked up to the first node already on the tree, the way a DVMRP/PIM join
grafts one branch.  A full build is that graft of every member onto the
bare source; between full builds the manager grafts a joining node onto
the tree in place (and prunes a leaving one), which gives the same tree
because every path comes from the source's one shortest-path map.

Both backends build the same tree:

* :class:`SPTBuilder` (``"spt"``, the default) — the union of delay-weighted
  shortest paths from the source to each member.  Every repair is a full
  rebuild.
* :class:`ProtectedTreeBuilder` (``"protected"``) — the same SPT, whose
  :meth:`~ProtectedTreeBuilder.precompute` pass stores a backup branch for
  every tree link (the shortest path that avoids it).  A single link or
  leaf-node failure is then healed by splicing the precomputed branch and
  regrafting only the orphaned subtree; anything the backups cannot cover
  degrades to a full rebuild.

Builders are selected by name through :func:`make_builder` (the knob behind
``MulticastManager(builder=...)`` and ``Scenario(builder=...)``);
``python -m repro churn`` compares the two.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "BUILDER_NAMES",
    "ProtectedTreeBuilder",
    "SPTBuilder",
    "TreeBuilder",
    "graft",
    "make_builder",
]

Edge = Tuple[Any, Any]


class TreeBuilder:
    """Strategy protocol for building and repairing distribution trees.

    ``build(source, members, network) -> edges`` returns the directed edge
    set of the tree; ``repair(source, tree, failed, network) -> healed``
    returns ``tree`` healed of the loss of ``failed`` as a new edge set, or
    ``None`` when only a full rebuild can (the manager then falls back to
    :meth:`build`).  ``precompute(source, tree, network)`` is an optional
    hook the manager calls whenever it replaces a source's tree, for
    backends that prepare repair material ahead of failures, and
    ``amend(source, added, removed, network)`` the one it calls when a
    graft or prune changed the tree in place.
    """

    name = "abstract"

    def build(self, source: Any, members: Iterable[Any], network) -> Set[Edge]:
        raise NotImplementedError

    def repair(self, source: Any, tree: Set[Edge], failed: Iterable[Edge],
               network) -> Optional[Set[Edge]]:
        return None

    def precompute(self, source: Any, tree: Set[Edge], network) -> None:  # noqa: B027
        pass

    def amend(self, source: Any, added: Iterable[Edge], removed: Iterable[Edge],  # noqa: B027
              network) -> None:
        pass


def graft(tree: Dict[Any, Any], source: Any, members: Iterable[Any], network) -> List[Edge]:
    """Graft each member's delay-weighted shortest path from ``source``
    onto ``tree`` (``{node: parent}``, the source not a key); returns the
    edges added, each branch from its branch point down.

    Every path comes from the one shortest-path map of ``source``, so a
    node already on the tree brings its whole path with it: each member's
    path is walked from the member up and the walk stops there.  A member
    with no path adds nothing.
    """
    added: List[Edge] = []
    for member in members:
        path = network.cached_path(source, member)
        if path is None:
            continue
        top = len(path) - 1
        while top > 0 and path[top] not in tree:
            top -= 1
        for i in range(top + 1, len(path)):
            tree[path[i]] = path[i - 1]
            added.append((path[i - 1], path[i]))
    return added


class SPTBuilder(TreeBuilder):
    """Source-based shortest-path tree — the historical default.

    This is exactly the computation the manager used to inline: what
    DVMRP/PIM-SM(SSM) converge to in ns-2, and the premise of the paper's
    evaluation.  It never repairs locally; the manager's full-rebuild path
    (which is this same computation) handles every failure.
    """

    name = "spt"

    def build(self, source: Any, members: Iterable[Any], network) -> Set[Edge]:
        return set(graft({}, source, members, network))


class ProtectedTreeBuilder(SPTBuilder):
    """SPT plus precomputed per-link backup branches for local repair.

    Whenever a source's tree changes, :meth:`precompute` stores — for each
    tree edge ``(u, v)`` — the cheapest path from the source to ``v`` that
    avoids the edge in both directions.  When a single tree link later
    fails, :meth:`repair` splices that stored branch in at the deepest
    surviving tree node and regrafts only the orphaned subtree (re-rooting
    it when the backup enters the subtree somewhere other than its old
    root), leaving the rest of the tree — and its receivers — untouched.
    """

    name = "protected"

    def __init__(self) -> None:
        # source -> {tree edge -> backup path (node tuple, source..v)}
        self._backups: Dict[Any, Dict[Edge, Tuple[Any, ...]]] = {}

    def precompute(self, source: Any, tree: Set[Edge], network) -> None:
        """Store, per tree edge ``(u, v)``, the backup path source -> ``v``.

        A backup depends on the graph, not on the tree, and churn rebuilds
        the same edges over and over, so the search itself is
        :meth:`Network.shortest_path_avoiding` — memoised per topology epoch
        — and this pass is one lookup per edge.  The avoided link is hidden
        from the search rather than removed from and re-added to the shared
        routing graph, which keeps the graph, its successor order (a re-added
        edge moves to the back, and equal-delay ties follow that order) and
        the path cache intact.
        """
        self._backups[source] = {}
        self.amend(source, tree, (), network)

    def amend(self, source: Any, added: Iterable[Edge], removed: Iterable[Edge],
              network) -> None:
        """Keep the backups in step with a graft or prune: drop the pruned
        edges' branches, store the grafted edges' (the same lookup as
        :meth:`precompute`'s, so no stale backup outlives its edge)."""
        backups = self._backups.setdefault(source, {})
        for edge in removed:
            backups.pop(edge, None)
        for u, v in added:
            path = network.shortest_path_avoiding(source, v, u, v)
            if path is not None:
                backups[(u, v)] = path

    # ------------------------------------------------------------------
    def repair(self, source: Any, tree: Set[Edge], failed: Iterable[Edge],
               network) -> Optional[Set[Edge]]:
        lost = {e for e in failed if e in tree}
        if len(lost) != 1:
            return None  # only single-failure protection is precomputed
        (u, v) = next(iter(lost))
        backup = self._backups.get(source, {}).get((u, v))
        if backup is None:
            return None
        children: Dict[Any, List[Any]] = {}
        for a, b in tree:
            children.setdefault(a, []).append(b)
        orphan_nodes = self._subtree_nodes(v, children)
        remaining = {source}.union(*tree) - orphan_nodes
        # Splice from the deepest backup-path node that survived in the main
        # tree, stopping at the first node inside the orphaned subtree.
        start = None
        for i, node in enumerate(backup):
            if node in remaining:
                start = i
            elif node in orphan_nodes:
                entry_idx = i
                break
        else:
            entry_idx = len(backup) - 1  # ends at v, which is in orphan_nodes
        if start is None:
            return None
        entry = backup[entry_idx]
        added = set(zip(backup[start:entry_idx], backup[start + 1:entry_idx + 1]))
        removed = set(lost)
        # Re-root the orphaned subtree at the entry point: reverse the old
        # v -> ... -> entry chain (entry is below v, so the walk ends there).
        parent = {b: a for a, b in tree}
        node = entry
        while node != v:
            removed.add((parent[node], node))
            added.add((node, parent[node]))
            node = parent[node]
        healed = (tree - removed) | added
        if not self._valid(source, tree, healed, network):
            return None
        return healed

    @staticmethod
    def _subtree_nodes(root: Any, children: Dict[Any, List[Any]]) -> Set[Any]:
        nodes = {root}
        stack = [root]
        while stack:
            node = stack.pop()
            for child in children.get(node, ()):
                if child not in nodes:
                    nodes.add(child)
                    stack.append(child)
        return nodes

    @staticmethod
    def _valid(source: Any, tree: Set[Edge], healed: Set[Edge], network) -> bool:
        """Reject a healed tree the current topology cannot carry.

        Every spliced edge (in ``healed`` but not in ``tree``) must be
        alive, and ``healed`` must still be a tree under the source
        (in-degree <= 1, no parent for the source, acyclic by construction
        of the splice).
        """
        for a, b in healed - tree:
            if not network.has_edge(a, b):
                return False
        indeg: Dict[Any, int] = {}
        for a, b in healed:
            indeg[b] = indeg.get(b, 0) + 1
            if indeg[b] > 1 or b == source:
                return False
        return True


#: Registered backend names, in the order experiments sweep them.
BUILDER_NAMES = ("spt", "protected")


def make_builder(spec: Any = "spt") -> TreeBuilder:
    """Resolve a builder from a name (``"spt"``, ``"protected"``) or pass an
    instance straight through."""
    if isinstance(spec, TreeBuilder):
        return spec
    if spec == "spt" or spec is None:
        return SPTBuilder()
    if spec == "protected":
        return ProtectedTreeBuilder()
    raise ValueError(f"unknown tree builder {spec!r} (choose from {BUILDER_NAMES})")
