"""Multicast membership and distribution-tree maintenance.

The manager models the pieces of IP multicast the paper's evaluation depends
on, without simulating a routing protocol packet-by-packet:

* **One distribution tree per source** — built by
  :class:`~repro.multicast.builders.SPTBuilder` over the members of all the
  groups rooted at a source; each group's tree is that tree *cut* to the
  group's own members (each member's path up to the source).  The layer
  groups of a session thus give every node one parent by construction.  The
  tree is the union of delay-weighted shortest paths from the source to
  each member, which is what DVMRP/PIM-SM(SSM) converge to in ns-2.
* **Graft latency** — a join becomes effective after the time a graft message
  needs to travel from the joining host up to the nearest on-tree router
  (plus a small IGMP report delay).
* **Leave latency** — a leave becomes effective only after
  ``leave_latency`` seconds, modelling the IGMP last-member query timeout the
  paper calls out in §V ("Group-leave latency and layer granularity").

The manager keeps each group's tree history as an **edge-toggle log**: for
every edge the group's cut has ever used, the times an install added or
removed it.  An install logs only the edges it changes, so the log costs a
path per join, not a tree per install.  The topology-discovery tool
(:mod:`repro.control.discovery`) serves stale snapshots out of this log
(:meth:`MulticastManager.snapshot_at`), which is how the paper's Fig. 10
staleness experiment is reproduced.

A source's tree changes only on a change of the source's member set or of
the topology (:meth:`MulticastManager.on_topology_change` states the rule),
and then only the groups whose cut can differ are re-cut.  A membership
change costs a path, not a tree: while the tree is *canonical* — fully
built at the current topology epoch — a node's first join grafts its
shortest path onto the tree in place and its last leave prunes the branch
back, exactly as a DVMRP/PIM graft or prune would, and the group's cut
grows or shrinks along the same branch; a full build runs only on a tree
that is not canonical.  The manager tracks
per-member *disruption windows* (orphaned intervals), which the control
plane reads to fence reports measured across a repair.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..simnet.topology import Network
from .addressing import GroupAllocator
from .builders import SPTBuilder, graft

__all__ = ["GroupState", "MulticastManager"]

Edge = Tuple[Any, Any]

#: Closed disruption windows retained per group (oldest dropped beyond this).
MAX_DISRUPTIONS = 256


class GroupState:
    """Mutable per-group bookkeeping."""

    def __init__(self, group: int, source: Any):
        self.group = group
        self.source = source
        self.members: Set[Any] = set()
        #: member -> number of co-located receivers subscribed through it.
        #: Multicast state is per *node*: the tree grafts on the 0->1 join
        #: and prunes on the 1->0 leave, so crowds sharing an edge node
        #: cannot tear each other's branches down.  A positive count is the
        #: membership the node wants.
        self.refcount: Dict[Any, int] = {}
        #: Administrative deny-list: effective membership is a positive
        #: ``refcount`` and not blocked (receiver-quarantine enforcement).
        self.blocked: Set[Any] = set()
        self.edges: Set[Edge] = set()
        #: The same cut as ``node -> downstream neighbours``: the forwarding
        #: entries installed for the group.
        self.children: Dict[Any, Set[Any]] = {}
        #: edge -> the times installs added and removed it, alternately and
        #: oldest first: the edge was in the cut at ``t`` exactly when an
        #: odd number of its toggles happened at or before ``t``
        #: (:meth:`MulticastManager.snapshot_at`).
        self.toggles: Dict[Edge, List[float]] = {}
        #: member -> time it lost coverage (open disruption windows): the
        #: members the current tree does not reach.
        self.orphan_since: Dict[Any, float] = {}
        #: Closed disruption windows ``(member, t0, t1)``, oldest first.
        self.disruptions: List[Tuple[Any, float, float]] = []


class MulticastManager:
    """Tracks membership and installs multicast forwarding state on nodes.

    Parameters
    ----------
    network:
        The :class:`~repro.simnet.topology.Network` whose nodes receive
        forwarding entries.
    leave_latency:
        Seconds between a leave request and traffic actually stopping
        (IGMP last-member query timeout; ns-2-like default 2 s).
    igmp_report_delay:
        Fixed local-subnet latency added to every graft.
    expedited_leave:
        Paper §V extension: "Expedited group-leaves, where routers keep
        track of receivers downstream, may also be considered for decreasing
        group-leave latency."  When True, a leave propagates like a prune
        message (per-hop delay up to the branch point) instead of waiting
        the full IGMP timeout — routers already know there is no other
        downstream receiver.
    """

    def __init__(
        self,
        network: Network,
        leave_latency: float = 2.0,
        igmp_report_delay: float = 0.05,
        expedited_leave: bool = False,
    ):
        if leave_latency < 0 or igmp_report_delay < 0:
            raise ValueError("latencies must be non-negative")
        self.network = network
        self.sched = network.sched
        self.leave_latency = leave_latency
        self.igmp_report_delay = igmp_report_delay
        self.expedited_leave = expedited_leave
        self.builder = SPTBuilder()
        self.groups: Dict[int, GroupState] = {}
        #: source -> its distribution tree as ``{node: parent}``, built over
        #: the members of all the source's groups.
        self._trees: Dict[Any, Dict[Any, Any]] = {}
        #: source -> the topology epoch its tree was last fully built at.
        #: While it is the current epoch the tree is canonical, and grafts
        #: and prunes edit it in place.
        self._canonical: Dict[Any, int] = {}
        self.allocator = GroupAllocator()
        #: Optional :class:`~repro.obs.profile.Profiler`; when set, tree
        #: construction charges ``tree.build``.
        self.profiler: Optional[Any] = None
        #: Topology changes that modified at least one group's tree.
        self.repair_epoch = 0
        #: Group re-cuts: one per group a membership change re-cuts, one
        #: per group a topology change moved onto a rebuilt tree.
        self.builds = 0
        #: Always 0: every repair is a rebuild.  Kept for ``bench/worker.py``
        #: only, which reads it (ROADMAP 2(d)).
        self.local_repairs = 0
        #: Groups a topology change moved onto a rebuilt tree.
        self.rebuild_repairs = 0
        #: Groups a :meth:`on_topology_change` call left as they were.
        self.groups_skipped = 0
        #: One row per topology-change repair: ``{"time", "group",
        #: "edges_removed", "edges_added"}``.
        self.repair_log: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Group lifecycle
    # ------------------------------------------------------------------
    def create_group(self, source: Any, group: Optional[int] = None) -> int:
        """Register a group rooted at ``source``; returns its address."""
        if source not in self.network.nodes:
            raise KeyError(f"unknown source node {source!r}")
        if group is None:
            group = self.allocator.allocate()
        if group in self.groups:
            raise ValueError(f"group {group} already exists")
        state = GroupState(group, source)
        self.groups[group] = state
        self._trees.setdefault(source, {})
        return group

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, group: int, member: Any) -> float:
        """Request that ``member`` join ``group``.

        Returns the simulated time at which the join becomes effective (the
        graft completes and data starts flowing toward the member).
        """
        state = self._state(group)
        if member not in self.network.nodes:
            raise KeyError(f"unknown member node {member!r}")
        count = state.refcount.get(member, 0) + 1
        state.refcount[member] = count
        if count > 1 and member in state.members:
            # A co-located receiver already gets the group on this LAN:
            # only the local report latency applies, no graft needed.
            return self.sched.now + self.igmp_report_delay
        delay = self._graft_delay(state, member)
        effective = self.sched.now + delay
        self.sched.after(delay, self._apply, state, member)
        return effective

    def leave(self, group: int, member: Any) -> float:
        """Request that ``member`` leave ``group``.

        Returns the time traffic will actually stop.  With standard IGMP
        semantics that is ``leave_latency`` later; data keeps flowing — and
        keeps congesting links — until then, which is the paper's §V
        group-leave concern.  With :attr:`expedited_leave` the prune only
        needs to propagate to the nearest branch point.
        """
        state = self._state(group)
        count = max(0, state.refcount.get(member, 0) - 1)
        state.refcount[member] = count
        if count > 0:
            # Other co-located receivers still subscribe through this node:
            # the router keeps serving the group, nothing to prune.
            return self.sched.now
        if self.expedited_leave:
            delay = self._prune_delay(state, member)
        else:
            delay = self.leave_latency
        effective = self.sched.now + delay
        self.sched.after(delay, self._apply, state, member)
        return effective

    def _prune_delay(self, state: GroupState, member: Any) -> float:
        """Propagation time for an expedited prune from ``member`` up the
        group's installed tree to the deepest ancestor that still serves
        another branch: another member downstream of ``member``, another
        child, a member of its own, or the source."""
        source, parent = state.source, self._trees[state.source]
        delay = self.igmp_report_delay
        if member == source or (parent.get(member), member) not in state.edges:
            return delay  # not on the tree: the branch is already gone
        links, children = self.network.links, state.children
        below = member in children  # holds every ancestor's branch
        node = member
        while True:
            up = parent[node]
            delay += links[(up, node)].delay
            if below or up == source or up in state.members or len(children[up]) > 1:
                return delay
            node = up

    def set_blocked(self, group: int, member: Any, blocked: bool) -> float:
        """Administratively block ``member`` from ``group`` (or unblock).

        This is the quarantine-enforcement primitive: the domain's routers
        refuse to serve the group to a blocked member regardless of what it
        asks for.  Membership *intent* (``refcount``) is preserved — a join
        issued while blocked is recorded but denied, and takes effect when
        the block is lifted.  Returns the time the change becomes effective
        (a block propagates like a prune after ``igmp_report_delay``; an
        unblock like a graft).
        """
        state = self._state(group)
        if member not in self.network.nodes:
            raise KeyError(f"unknown member node {member!r}")
        if blocked == (member in state.blocked):
            return self.sched.now
        if blocked:
            state.blocked.add(member)
            delay = self.igmp_report_delay
        else:
            state.blocked.discard(member)
            delay = self._graft_delay(state, member)
        effective = self.sched.now + delay
        self.sched.after(delay, self._apply, state, member)
        return effective

    def _apply(self, state: GroupState, member: Any) -> None:
        """Reconcile ``member``'s actual membership with the desired state.

        Join/leave races resolve to whatever was requested most recently
        because each apply event re-reads ``refcount`` (and the deny-list) at
        its fire time.  A node's first join across the source's groups
        grafts its path onto the source's tree, and its last leave prunes
        the branch, upward while a node has no child and is a member of none
        of the source's groups — both in place on a canonical tree; a tree
        that is not canonical is rebuilt instead.  Any other join or leave
        leaves the tree as it is.  Either way the group's cut grows or
        shrinks along the member's branch (re-cut whole after a rebuild),
        and a sibling group is re-cut only when its cut can differ.  Every
        outcome — cuts, counters, events, snapshots — is the one a full
        rebuild would give.
        """
        want = state.refcount.get(member, 0) > 0 and member not in state.blocked
        have = member in state.members
        if want == have:
            return
        if want:
            state.members.add(member)
        else:
            state.members.discard(member)
        source = state.source
        siblings = [s for s in self.groups.values() if s.source == source]
        if any(member in s.members for s in siblings if s is not state):
            self.builds += 1
            self._recut_member(state, member)
            return
        if self._canonical.get(source) != self.network.topology_epoch:
            lost = self._build_tree(source)
            for s in siblings:
                if s is state or self._stale(s, lost):
                    self.builds += 1
                    self._recut(s)
            return
        tree = self._trees[source]
        pruned: List[Edge] = []
        if want:
            graft(tree, source, (member,), self.network)
            self._recut_member(state, member)
        else:
            # The cut is pruned first: the tree's branch is its way up.
            self._recut_member(state, member)
            # Canonical, the tree is the union of its groups' cuts: a node
            # keeps a child exactly while some group's cut gives it one.
            node = member
            while node != source and node in tree and not any(
                    node in s.members or node in s.children for s in siblings):
                up = tree.pop(node)
                pruned.append((up, node))
                node = up
        self.builds += 1
        lost = set(pruned)
        for s in siblings:
            if s is not state and self._stale(s, lost):
                self.builds += 1
                self._recut(s)

    # ------------------------------------------------------------------
    # Fault reaction
    # ------------------------------------------------------------------
    def on_topology_change(
        self,
        removed_edges: Iterable[Edge] = (),
        added_edges: Iterable[Edge] = (),
    ) -> int:
        """React to links/nodes changing; returns groups whose tree changed.

        Fault injectors call this after :meth:`Network.set_link_up` /
        :meth:`Network.set_node_up`, passing the edges those calls actually
        removed/restored; membership intent (``refcount``/``members``) is
        deliberately preserved so recovery is automatic.  A source's tree
        changes in three cases and no others:

        * **Its member set changed** (:meth:`_apply`): grafted or pruned in
          place, or rebuilt when it is not canonical.
        * **Edges restored:** every source's tree is rebuilt on the graph as
          it now stands.  That reverts trees built during the outage and
          orphaned members alike.
        * **Edges removed:** a source's tree that lost one of them is
          rebuilt.

        Then each group of a changed tree that lost an edge of the old tree
        or has an orphaned member is re-cut.  Every other group is skipped:
        no install, no toggle.
        """
        removed = set(removed_edges)
        restored = bool(set(added_edges))
        lost: Dict[Any, Set[Edge]] = {}
        for source, parent in self._trees.items():
            if restored or any(parent.get(v) == u for u, v in removed):
                lost[source] = self._build_tree(source)
        now = self.sched.now
        changed = 0
        for state in self.groups.values():
            if state.source not in lost or not self._stale(state, lost[state.source]):
                self.groups_skipped += 1
                continue
            before = frozenset(state.edges)
            if not self._recut(state):
                self.groups_skipped += 1
                continue
            changed += 1
            self.rebuild_repairs += 1
            self.builds += 1
            after = frozenset(state.edges)
            self.repair_log.append({
                "time": now,
                "group": state.group,
                "edges_removed": len(before - after),
                "edges_added": len(after - before),
            })
            bus = self.sched.bus
            if bus is not None and bus.wants("tree.repair.rebuild"):
                bus.emit(
                    "tree.repair.rebuild",
                    now,
                    group=state.group,
                    edges_removed=len(before - after),
                    edges_added=len(after - before),
                    orphans=len(state.orphan_since),
                )
        if changed:
            self.repair_epoch += 1
        return changed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def members(self, group: int) -> FrozenSet[Any]:
        """Current effective members of ``group``."""
        return frozenset(self._state(group).members)

    def tree_edges(self, group: int) -> FrozenSet[Edge]:
        """Current directed edges of the group's distribution tree."""
        return frozenset(self._state(group).edges)

    def source_of(self, group: int) -> Any:
        """The source node the group's tree is rooted at."""
        return self._state(group).source

    def snapshot_at(self, group: int, at_time: float) -> FrozenSet[Edge]:
        """The group's tree edges as installed at ``at_time``.

        This is the primitive the (possibly stale) topology-discovery tool is
        built on.  Requesting a time before the group existed returns the
        empty initial tree.  An unknown group (e.g. a session registered
        with a failed-over controller before its source started) yields an
        empty tree rather than raising, so the control plane degrades
        instead of crashing.
        """
        state = self.groups.get(group)
        if state is None:
            return frozenset()
        # Parity of the toggles up to ``at_time``: several installs at one
        # instant resolve to the last, and no toggle means not installed.
        return frozenset(
            e for e, ts in state.toggles.items() if bisect_right(ts, at_time) & 1)

    def node_disrupted_during(self, group: int, node: Any, t0: float, t1: float) -> bool:
        """True when ``node`` was orphaned from ``group`` at any point of
        ``[t0, t1]`` — the report-fencing primitive (a loss measurement that
        overlaps a repair says nothing about congestion)."""
        state = self.groups.get(group)
        if state is None:
            return False
        since = state.orphan_since.get(node)
        if since is not None and since <= t1:
            return True
        for member, w0, w1 in reversed(state.disruptions):
            if member == node and w0 <= t1 and t0 <= w1:
                return True
        return False

    def orphan_seconds(self, group: int, until: Optional[float] = None) -> float:
        """Total member-seconds of lost coverage for ``group`` so far."""
        state = self._state(group)
        until = self.sched.now if until is None else until
        total = sum(min(t1, until) - t0 for _, t0, t1 in state.disruptions if t1 >= t0)
        total += sum(until - t0 for t0 in state.orphan_since.values() if t0 <= until)
        return total

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _state(self, group: int) -> GroupState:
        try:
            return self.groups[group]
        except KeyError:
            raise KeyError(f"unknown group {group}") from None

    def _graft_delay(self, state: GroupState, member: Any) -> float:
        """Propagation time for a graft from ``member`` along its shortest
        path up to the first node on the group's tree."""
        source = state.source
        if member == source:
            return self.igmp_report_delay
        parent, edges = self._trees[source], state.edges
        path = self.network.shortest_path_or_none(source, member)
        if path is None:
            # Unreachable right now: the graft "completes" locally but the
            # rebuild will not find a path either; the member gets grafted
            # for real when connectivity returns (on_topology_change).
            return self.igmp_report_delay
        # Walk from the member up toward the source, accumulating delay until
        # we reach a router already on the tree.
        delay = self.igmp_report_delay
        for i in range(len(path) - 1, 0, -1):
            node = path[i - 1]
            delay += self.network.edge_delay(node, path[i])
            # On the group's tree: the source, or the head of a cut edge
            # (the cut is made of tree edges, so its edge into ``node``).
            if node == source or (parent.get(node), node) in edges:
                break
        return delay

    def _build_tree(self, source: Any) -> Set[Edge]:
        """Rebuild ``source``'s tree over its members on the graph as it
        stands; returns the edges the old tree had and the new one lacks.

        Members with no path from the source (dead link or node on the way)
        simply contribute no branch: they are orphaned until a restore
        rebuilds the tree.
        """
        members = set().union(*(s.members for s in self.groups.values() if s.source == source))
        wall0 = perf_counter()
        edges = self.builder.build(source, members, self.network)
        prof = self.profiler
        if prof is not None:
            prof.add("tree.build", perf_counter() - wall0)
        self._canonical[source] = self.network.topology_epoch
        old = self._trees[source]
        tree = self._trees[source] = {v: u for u, v in edges}
        return {(u, v) for v, u in old.items() if tree.get(v) != u}

    @staticmethod
    def _stale(state: GroupState, lost: Set[Edge]) -> bool:
        """Whether the group's cut can differ after its source's tree lost
        ``lost``: it used one of those edges or has an orphaned member.
        Any other group's edges are all still on the tree, so its cut is
        the tree it has."""
        return bool(state.orphan_since) or not state.edges.isdisjoint(lost)

    def _recut(self, state: GroupState) -> bool:
        """Install the group's cut of its source's tree — each member's
        path up to the source — and return whether the edges moved.  A
        member the tree does not reach adds nothing: it is orphaned."""
        parent = self._trees[state.source]
        edges: Set[Edge] = set()
        reached = {state.source}
        for member in state.members:
            node = member
            while node not in reached and node in parent:
                reached.add(node)
                edges.add((parent[node], node))
                node = parent[node]
        # Membership may have moved even when the edges did not.
        self._track_coverage(state, {m for m in state.members if m not in reached})
        if edges == state.edges:
            return False
        moved = edges ^ state.edges
        # Clear old entries on nodes that had them, then install fresh ones.
        old_nodes = set(state.children)
        state.edges = edges
        state.children = {}
        for u, v in edges:
            state.children.setdefault(u, set()).add(v)
        self._installed(state, old_nodes | set(state.children), moved)
        return True

    def _recut_member(self, state: GroupState, member: Any) -> None:
        """:meth:`_recut` after ``member`` joined or left ``state`` alone,
        at the cost of its branch: a joined member's path up the source's
        tree to the cut is added, a departed member's branch is taken back
        up to the first node that has another child or is a member.  Only
        the member's coverage and the forwarding entries of the nodes whose
        child set changed are touched."""
        source = state.source
        tree, edges, children = self._trees[source], state.edges, state.children
        joined = member in state.members
        branch: List[Edge] = []
        node = member
        if joined:
            while node != source and node in tree and (tree[node], node) not in edges:
                branch.append((tree[node], node))
                node = tree[node]
            branch.reverse()  # from the branch point down
            for u, v in branch:
                edges.add((u, v))
                children.setdefault(u, set()).add(v)
        else:
            while (node != source and node not in children and node not in state.members
                   and (tree.get(node), node) in edges):
                up = tree[node]
                branch.append((up, node))
                edges.discard((up, node))
                children[up].discard(node)
                if not children[up]:
                    del children[up]
                node = up
        orphaned = joined and member != source and member not in tree
        self._track_coverage(state, {member} if orphaned else set(), {member})
        if branch:
            self._installed(state, [u for u, _ in branch], branch)

    def _installed(self, state: GroupState, nodes: Iterable[Any],
                   moved: Iterable[Edge]) -> None:
        """The group's cut moved by the edges ``moved``: write the
        forwarding entries of ``nodes`` from ``state.children``, log each
        moved edge's toggle and announce ``tree.build``."""
        for name in nodes:
            self.network.nodes[name].set_forwarding(state.group, state.children.get(name))
        for edge in moved:
            state.toggles.setdefault(edge, []).append(self.sched.now)
        bus = self.sched.bus
        if bus is not None and bus.wants("tree.build"):
            bus.emit(
                "tree.build", self.sched.now,
                group=state.group, edges=len(state.edges), members=len(state.members),
            )

    def _track_coverage(self, state: GroupState, orphans: Set[Any],
                        among: Optional[Set[Any]] = None) -> None:
        """Open a disruption window for each of ``orphans`` (members the
        group's tree does not reach) that has none, and close every open
        window of a node that is not one of them (reached again, or left)
        — of the nodes ``among`` only, when just those can have moved."""
        now = self.sched.now
        bus = self.sched.bus
        want = bus is not None and bus.wants("tree.orphan")
        for member in sorted(orphans - state.orphan_since.keys(), key=str):
            state.orphan_since[member] = now
            if want:
                bus.emit("tree.orphan", now, group=state.group, node=member, lost=True)
        settled = state.orphan_since.keys() if among is None else state.orphan_since.keys() & among
        for member in sorted(settled - orphans, key=str):
            state.disruptions.append((member, state.orphan_since.pop(member), now))
            if want:
                bus.emit("tree.orphan", now, group=state.group, node=member, lost=False)
        if len(state.disruptions) > MAX_DISRUPTIONS:
            del state.disruptions[: len(state.disruptions) - MAX_DISRUPTIONS]
