"""Multicast membership and distribution-tree maintenance.

The manager models the pieces of IP multicast the paper's evaluation depends
on, without simulating a routing protocol packet-by-packet:

* **Pluggable distribution trees** — tree construction is a strategy object
  (:mod:`repro.multicast.builders`).  The default :class:`~repro.multicast.
  builders.SPTBuilder` is the union of delay-weighted shortest paths from the
  source to each member, which is what DVMRP/PIM-SM(SSM) converge to in
  ns-2; alternative backends bound node fan-out or precompute per-link
  backup branches for fast local repair.
* **Graft latency** — a join becomes effective after the time a graft message
  needs to travel from the joining host up to the nearest on-tree router
  (plus a small IGMP report delay).
* **Leave latency** — a leave becomes effective only after
  ``leave_latency`` seconds, modelling the IGMP last-member query timeout the
  paper calls out in §V ("Group-leave latency and layer granularity").

The manager records a **snapshot history** of ``(time, members, edges)`` per
group.  The topology-discovery tool (:mod:`repro.control.discovery`) serves
stale snapshots out of this history, which is how the paper's Fig. 10
staleness experiment is reproduced.

Fault injectors pass the concrete edges a link/node change removed or
restored to :meth:`MulticastManager.on_topology_change`, which applies one
rule.  When edges are removed, only the groups whose tree lost one are
touched: a builder that can heals the loss with a local
:class:`~repro.multicast.builders.TreePatch`, otherwise the group is rebuilt.
When edges are restored, every group's tree is rebuilt on the graph as it now
stands and reinstalled where it differs from the installed one.  Between
restores a tree healed by a patch is not the builder's tree, so after a
repair or a membership change the groups sharing a source are checked for a
node with two parents; if there is one, all of them take the builder's
tree.  With a
shortest-path builder the layer groups of a session thus stay on one tree
after every event, however each came by its current tree.  The manager
tracks per-member *disruption windows* (orphaned intervals) and a
monotonically increasing :attr:`~MulticastManager.repair_epoch` so the
control plane can fence reports measured across a repair.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..simnet.topology import Network
from .addressing import GroupAllocator
from .builders import TreeBuilder, make_builder

__all__ = ["GroupState", "MulticastManager", "TreeSnapshot"]

Edge = Tuple[Any, Any]

#: Closed disruption windows retained per group (oldest dropped beyond this).
MAX_DISRUPTIONS = 256


class TreeSnapshot:
    """Immutable record of a group's state at a point in time."""

    __slots__ = ("time", "members", "edges")

    def __init__(self, time: float, members: FrozenSet[Any], edges: FrozenSet[Edge]):
        self.time = time
        self.members = members
        self.edges = edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TreeSnapshot t={self.time:.2f} members={sorted(map(str, self.members))}>"


class GroupState:
    """Mutable per-group bookkeeping."""

    def __init__(self, group: int, source: Any):
        self.group = group
        self.source = source
        self.members: Set[Any] = set()
        self.desired: Dict[Any, bool] = {}
        #: member -> number of co-located receivers subscribed through it.
        #: Multicast state is per *node*: the tree grafts on the 0->1 join
        #: and prunes on the 1->0 leave, so crowds sharing an edge node
        #: cannot tear each other's branches down.
        self.refcount: Dict[Any, int] = {}
        #: Administrative deny-list: effective membership is
        #: ``desired and not blocked`` (receiver-quarantine enforcement).
        self.blocked: Set[Any] = set()
        self.edges: Set[Edge] = set()
        self.history: List[TreeSnapshot] = []
        #: ``history[i].time`` for every ``i``, kept alongside so
        #: :meth:`MulticastManager.snapshot_at` can bisect without a scan.
        self.history_times: List[float] = []
        #: member -> time it lost coverage (open disruption windows): the
        #: members the current tree does not reach.
        self.orphan_since: Dict[Any, float] = {}
        #: Closed disruption windows ``(member, t0, t1)``, oldest first.
        self.disruptions: List[Tuple[Any, float, float]] = []

    def tree_nodes(self) -> Set[Any]:
        """All nodes currently spanned by the distribution tree."""
        nodes = {self.source}
        for u, v in self.edges:
            nodes.add(u)
            nodes.add(v)
        return nodes


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
    builder:
        Tree-construction backend: a :class:`~repro.multicast.builders.
        TreeBuilder` instance or one of the registered names (``"spt"``,
        ``"degree"``, ``"protected"``).  Defaults to the shortest-path tree
        the manager has always built.
    """

    def __init__(
        self,
        network: Network,
        leave_latency: float = 2.0,
        igmp_report_delay: float = 0.05,
        expedited_leave: bool = False,
        builder: Any = "spt",
    ):
        if leave_latency < 0 or igmp_report_delay < 0:
            raise ValueError("latencies must be non-negative")
        self.network = network
        self.sched = network.sched
        self.leave_latency = leave_latency
        self.igmp_report_delay = igmp_report_delay
        self.expedited_leave = expedited_leave
        self.builder: TreeBuilder = make_builder(builder)
        self.groups: Dict[int, GroupState] = {}
        self.allocator = GroupAllocator()
        #: Optional :class:`~repro.obs.profile.Profiler`; when set, tree
        #: construction charges ``tree.build`` and local repairs charge
        #: ``tree.repair``.
        self.profiler: Optional[Any] = None
        #: Bumped whenever a topology change modifies at least one tree;
        #: the control plane reads it (via discovery) to notice repairs.
        self.repair_epoch = 0
        #: Trees installed from a full build (membership changes + rebuild
        #: repairs); a restore's build that matches the installed tree is
        #: a skip, not a build.
        self.builds = 0
        #: Topology-change repairs served by a local patch vs a full rebuild.
        self.local_repairs = 0
        self.rebuild_repairs = 0
        #: Groups a :meth:`on_topology_change` call left as they were.
        self.groups_skipped = 0
        #: One row per topology-change repair: ``{"time", "group", "kind":
        #: "local"|"rebuild", "edges_removed", "edges_added"}``.
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
        self._record_snapshot(state)
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
        state.desired[member] = True
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
        state.desired[member] = False
        if self.expedited_leave:
            delay = self._prune_delay(state, member)
        else:
            delay = self.leave_latency
        effective = self.sched.now + delay
        self.sched.after(delay, self._apply, state, member)
        return effective

    def _prune_delay(self, state: GroupState, member: Any) -> float:
        """Propagation time for an expedited prune from ``member`` up to the
        deepest ancestor that still serves another branch."""
        if member == state.source or member not in state.tree_nodes():
            return self.igmp_report_delay
        # Count downstream members below each ancestor; the prune stops at
        # the first ancestor with another active branch (or the source).
        path = self.network.shortest_path_or_none(state.source, member)
        if path is None:  # partitioned: the branch is already effectively gone
            return self.igmp_report_delay
        delay = self.igmp_report_delay
        members_below: Dict[Any, int] = {}
        for m in state.members:
            if m == member:
                continue
            for node in self.network.shortest_path_or_none(state.source, m) or ():
                members_below[node] = members_below.get(node, 0) + 1
        for i in range(len(path) - 1, 0, -1):
            parent = path[i - 1]
            delay += self.network.edge_delay(parent, path[i])
            if members_below.get(parent, 0) > 0 or parent == state.source:
                break
        return delay

    def set_blocked(self, group: int, member: Any, blocked: bool) -> float:
        """Administratively block ``member`` from ``group`` (or unblock).

        This is the quarantine-enforcement primitive: the domain's routers
        refuse to serve the group to a blocked member regardless of what it
        asks for.  Membership *intent* (``desired``) is preserved — a join
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
        because each apply event re-reads ``desired`` (and the deny-list) at
        its fire time.
        """
        want = state.desired.get(member, False) and member not in state.blocked
        have = member in state.members
        if want == have:
            return
        if want:
            state.members.add(member)
        else:
            state.members.discard(member)
        self._rebuild(state, self._build(state))
        self._merge_layers(state.source)

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
        removed/restored; membership intent (``desired``/``members``) is
        deliberately preserved so recovery is automatic.  Two cases:

        * **Edges restored:** every group builds its tree on the graph as it
          now stands and reinstalls it where it differs from the installed
          edges.  That reverts repair detours, trees built during the outage
          and orphaned members alike, so the layer groups of a session never
          disagree about a node's parent once the graph is whole again.
        * **Edges removed:** a group whose tree lost one of them is healed by
          the builder's local :meth:`~repro.multicast.builders.TreeBuilder.
          repair` when it can, a full rebuild otherwise.  A patch keeps the
          surviving branches, so the repaired groups' sources then go
          through :meth:`_merge_layers`.

        Every other group is skipped: no install, no snapshot.
        """
        removed = set(removed_edges)
        restored = bool(set(added_edges))
        now = self.sched.now
        changed = 0
        repaired: Dict[Any, None] = {}  # sources, in group order
        for state in self.groups.values():
            before = frozenset(state.edges)
            if restored:
                new_edges = self._build(state)
                if new_edges == state.edges:
                    self.groups_skipped += 1
                    continue
                self._rebuild(state, new_edges)
                self.rebuild_repairs += 1
                kind = "rebuild"
            else:
                lost = removed & state.edges
                if not lost:
                    self.groups_skipped += 1
                    continue
                kind = self._repair(state, lost)
                repaired[state.source] = None
            changed += 1
            after = frozenset(state.edges)
            self.repair_log.append({
                "time": now,
                "group": state.group,
                "kind": kind,
                "edges_removed": len(before - after),
                "edges_added": len(after - before),
            })
            bus = self.sched.bus
            if bus is not None and bus.wants(f"tree.repair.{kind}"):
                bus.emit(
                    "tree.repair.local" if kind == "local" else "tree.repair.rebuild",
                    now,
                    group=state.group,
                    edges_removed=len(before - after),
                    edges_added=len(after - before),
                    orphans=len(state.orphan_since),
                )
        for source in repaired:
            self._merge_layers(source)
        if changed:
            self.repair_epoch += 1
        return changed

    def _merge_layers(self, source: Any) -> None:
        """Keep the groups rooted at ``source`` on one tree.

        A local patch keeps a tree's surviving branches, so it can give a
        node another parent than a sibling group has, whether that sibling
        was built on the degraded graph or healed from other branches.  When
        the groups disagree on any node's parent, each of them takes the
        builder's tree on the graph as it stands.  Those agree for the
        shortest-path builders, whose trees are all cut from the one
        shortest-path map of the source; the degree-bounded builder's need not.
        """
        siblings = [s for s in self.groups.values() if s.source == source]
        parent: Dict[Any, Any] = {}
        if all(parent.setdefault(v, u) == u for s in siblings for u, v in s.edges):
            return
        for state in siblings:
            new_edges = self._build(state)
            if new_edges != state.edges:
                self._rebuild(state, new_edges)

    def _repair(self, state: GroupState, lost: Set[Edge]) -> str:
        """Heal a tree that lost ``lost``; returns ``"local"`` or ``"rebuild"``.

        The builder's local patch comes first; a loss it cannot patch falls
        back to a full rebuild on the graph as it stands.
        """
        wall0 = perf_counter()
        patch = self.builder.repair(state, lost, self.network)
        if patch is None:
            self._rebuild(state, self._build(state))
            self.rebuild_repairs += 1
            return "rebuild"
        self._install(state, patch.apply(state.edges))
        prof = self.profiler
        if prof is not None:
            prof.add("tree.repair", perf_counter() - wall0)
        # Refreshing backup branches is preparation for the *next*
        # failure — background work, not part of this repair's latency.
        self.builder.precompute(state, self.network)
        self.local_repairs += 1
        return "local"

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

    def snapshot_at(self, group: int, at_time: float) -> TreeSnapshot:
        """The most recent snapshot with ``time <= at_time``.

        This is the primitive the (possibly stale) topology-discovery tool is
        built on.  Requesting a time before the group existed returns the
        empty initial snapshot.  A group with no snapshot history (or an
        unknown group — e.g. a session registered with a failed-over
        controller before its source started) yields an empty snapshot
        rather than raising, so the control plane degrades instead of
        crashing.
        """
        state = self.groups.get(group)
        if state is None or not state.history:
            return TreeSnapshot(at_time, frozenset(), frozenset())
        i = bisect_right(state.history_times, at_time) - 1
        return state.history[max(i, 0)]

    def disruption_windows(self, group: int) -> List[Tuple[Any, float, float]]:
        """Closed disruption windows ``(member, lost_at, restored_at)`` plus
        one open-ended entry ``(member, lost_at, now)`` per still-orphaned
        member."""
        state = self._state(group)
        now = self.sched.now
        out = list(state.disruptions)
        for member in sorted(state.orphan_since, key=str):
            out.append((member, state.orphan_since[member], now))
        return out

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
        """Propagation time for a graft from ``member`` to the on-tree point."""
        if member == state.source:
            return self.igmp_report_delay
        tree_nodes = state.tree_nodes()
        path = self.network.shortest_path_or_none(state.source, member)
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
            delay += self.network.edge_delay(path[i - 1], path[i])
            if node in tree_nodes:
                break
        return delay

    def _build(self, state: GroupState) -> Set[Edge]:
        """The builder's tree for the group on the graph as it stands.

        Members with no path from the source (dead link or node on the way)
        simply contribute no branch: their subtree is torn down now and
        regrafted by :meth:`on_topology_change` once connectivity returns.
        """
        wall0 = perf_counter()
        new_edges = self.builder.build(state.source, state.members, self.network)
        prof = self.profiler
        if prof is not None:
            prof.add("tree.build", perf_counter() - wall0)
        return new_edges

    def _rebuild(self, state: GroupState, new_edges: Set[Edge]) -> None:
        """(Re)install forwarding for ``new_edges``, a fresh :meth:`_build`."""
        self.builds += 1
        if new_edges == state.edges:
            self._track_coverage(state, new_edges)  # membership may have moved
            return
        self._install(state, new_edges)
        self.builder.precompute(state, self.network)
        bus = self.sched.bus
        if bus is not None and bus.wants("tree.build"):
            bus.emit(
                "tree.build", self.sched.now,
                group=state.group, edges=len(new_edges), members=len(state.members),
            )

    def _install(self, state: GroupState, new_edges: Set[Edge]) -> None:
        """Swap the tree's forwarding entries to ``new_edges`` + snapshot."""
        self._track_coverage(state, new_edges)
        # Clear old entries on nodes that had them, then install fresh ones.
        old_nodes = {u for u, _ in state.edges}
        state.edges = set(new_edges)
        children: Dict[Any, Set[Any]] = {}
        for u, v in new_edges:
            children.setdefault(u, set()).add(v)
        for name in old_nodes | set(children):
            self.network.nodes[name].set_forwarding(state.group, children.get(name))
        self._record_snapshot(state)

    def _track_coverage(self, state: GroupState, new_edges: Set[Edge]) -> None:
        """Open a disruption window for each member ``new_edges`` does not
        reach and close it once the member is reached again (or has left)."""
        covered = {state.source}
        for u, v in new_edges:
            covered.add(u)
            covered.add(v)
        orphans = {m for m in state.members if m not in covered}
        now = self.sched.now
        bus = self.sched.bus
        want = bus is not None and bus.wants("tree.orphan")
        for member in sorted(orphans - state.orphan_since.keys(), key=str):
            state.orphan_since[member] = now
            if want:
                bus.emit("tree.orphan", now, group=state.group, node=member, lost=True)
        for member in sorted(state.orphan_since.keys() - orphans, key=str):
            state.disruptions.append((member, state.orphan_since.pop(member), now))
            if want:
                bus.emit("tree.orphan", now, group=state.group, node=member, lost=False)
        if len(state.disruptions) > MAX_DISRUPTIONS:
            del state.disruptions[: len(state.disruptions) - MAX_DISRUPTIONS]

    def _record_snapshot(self, state: GroupState) -> None:
        state.history.append(
            TreeSnapshot(
                self.sched.now, frozenset(state.members), frozenset(state.edges)
            )
        )
        state.history_times.append(self.sched.now)
