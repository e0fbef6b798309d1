"""Distribution-tree construction.

The paper treats the multicast tree as *given*: the shortest-path tree
DVMRP/PIM converge to, which the controller exploits whatever its shape.
:class:`SPTBuilder` turns ``(source, members, network)`` into that tree's
directed edge set.  Builders see a source, a member set and the network:
the manager builds one tree per source over the members of all its groups
and cuts each group's tree from it, so builders know nothing of groups.

There is one walk for trees, :func:`graft`: a member's cached shortest path
walked up to the first node already on the tree, the way a DVMRP/PIM join
grafts one branch.  A full build is that graft of every member onto the
bare source; between full builds the manager grafts a joining node onto
the tree in place (and prunes a leaving one), which gives the same tree
because every path comes from the source's one shortest-path map.  Every
repair is a full build on the graph as it stands.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set, Tuple

__all__ = ["SPTBuilder", "TreeBuilder", "graft"]

Edge = Tuple[Any, Any]


class TreeBuilder:
    """Base of :class:`SPTBuilder`: ``build(source, members, network) ->
    edges`` returns the directed edge set of the tree.

    Kept for ``bench/tracing.py`` only, which times the ``build`` of every
    subclass it finds here (ROADMAP 2(d)).
    """

    def build(self, source: Any, members: Iterable[Any], network) -> Set[Edge]:
        raise NotImplementedError


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
    """Source-based shortest-path tree: the union of delay-weighted
    shortest paths from the source to each member, which is what
    DVMRP/PIM-SM(SSM) converge to in ns-2 and the premise of the paper's
    evaluation."""

    def build(self, source: Any, members: Iterable[Any], network) -> Set[Edge]:
        return set(graft({}, source, members, network))
