"""Clipping a global topology into per-domain views.

A :class:`DomainPartitioner` takes a fully built
:class:`~repro.experiments.scenario.Scenario` (nodes, links, sessions,
receivers) plus a node → domain assignment and produces one immutable
:class:`DomainView` per domain: the domain's nodes, its intra-domain links,
the border gateway the session tree enters through, the border uplink's
characteristics, and the sessions/receivers living inside the domain.

A view is everything a :class:`~repro.federation.shard.DomainShard` needs to
rebuild the domain as a *standalone* simulation slice — no object from the
global scenario is shared, which is what keeps shards isolated from one
another.

Assignments can be given explicitly (node → domain mapping) or derived with
:meth:`DomainPartitioner.by_gateways`: name one border gateway per domain
and every node whose delay-shortest path from the session source passes
through that gateway joins the domain (the gateway's subtree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "DomainLink",
    "DomainReceiver",
    "DomainSession",
    "DomainView",
    "DomainPartitioner",
]


@dataclass(frozen=True)
class DomainLink:
    """One intra-domain link, as captured from the global topology."""

    a: Any
    b: Any
    bandwidth: float
    delay: float
    queue_limit: int


@dataclass(frozen=True)
class DomainReceiver:
    """One receiver placement inside the domain, in global creation order."""

    receiver_id: Any
    session_id: Any
    node: Any
    initial_level: int
    mode: str


@dataclass(frozen=True)
class DomainSession:
    """A session (as seen from inside the domain) and its source model."""

    session_id: Any
    traffic: str  # "cbr" | "vbr"
    peak_to_mean: float
    schedule: Any  # LayerSchedule — shared immutable config object


@dataclass(frozen=True)
class DomainView:
    """Everything one domain shard needs, clipped from the global scenario."""

    domain: str
    nodes: Tuple[Any, ...]
    links: Tuple[DomainLink, ...]
    gateway: Any
    uplink_bandwidth: float
    uplink_delay: float
    uplink_queue_limit: int
    sessions: Tuple[DomainSession, ...]
    receivers: Tuple[DomainReceiver, ...]

    @property
    def receiver_count(self) -> int:
        return len(self.receivers)


class DomainPartitioner:
    """Splits a built scenario into independent per-domain views."""

    def __init__(self, assignment: Mapping[Any, str]) -> None:
        """``assignment`` maps nodes to domain names.  Unassigned nodes
        (the source, backbone core, ...) belong to no domain and appear in
        no view."""
        if not assignment:
            raise ValueError("assignment must name at least one domain")
        self.assignment: Dict[Any, str] = dict(assignment)

    # ------------------------------------------------------------------
    @classmethod
    def by_gateways(
        cls, scenario: Any, gateways: Mapping[str, Any]
    ) -> "DomainPartitioner":
        """Assign each gateway's subtree to its domain.

        A node joins domain ``d`` when ``gateways[d]`` lies on the
        delay-shortest path from the (first) session source to the node;
        with nested gateways the *deepest* one on the path wins.  Nodes
        reached through no gateway stay unassigned.
        """
        if not gateways:
            raise ValueError("need at least one gateway")
        network = scenario.network
        for domain, node in sorted(gateways.items(), key=lambda kv: str(kv[0])):
            if node not in network.nodes:
                raise KeyError(f"gateway node {node!r} (domain {domain!r}) unknown")
        if not scenario.sessions:
            raise ValueError("scenario has no sessions to partition around")
        source = scenario.sessions[
            sorted(scenario.sessions, key=str)[0]
        ].source
        gateway_of = {node: domain for domain, node in gateways.items()}
        assignment: Dict[Any, str] = {}
        for name in sorted(network.nodes, key=str):
            path = network.shortest_path_or_none(source, name)
            if path is None:
                continue
            for hop in reversed(path):  # deepest gateway on the path wins
                domain = gateway_of.get(hop)
                if domain is not None:
                    assignment[name] = domain
                    break
        missing = sorted(set(gateways) - set(assignment.values()))
        if missing:
            raise ValueError(
                f"gateways unreachable from source {source!r}: {missing}"
            )
        return cls(assignment)

    # ------------------------------------------------------------------
    def partition(self, scenario: Any) -> Dict[str, DomainView]:
        """Clip ``scenario`` into one :class:`DomainView` per domain.

        Deterministic: domains, nodes and links are ordered by ``str()``
        sort; receivers keep global creation order.  Raises when a domain's
        session traffic enters through more than one border link (views are
        single-gateway by construction, like the paper's Fig. 3 domains).
        """
        network = scenario.network
        unknown = sorted(
            str(n) for n in self.assignment if n not in network.nodes
        )
        if unknown:
            raise KeyError(f"assignment names unknown nodes: {unknown}")
        domains = sorted({str(d) for d in self.assignment.values()})
        nodes_of: Dict[str, List[Any]] = {d: [] for d in domains}
        for name in sorted(network.nodes, key=str):
            domain = self.assignment.get(name)
            if domain is not None:
                nodes_of[str(domain)].append(name)

        sessions = [
            scenario.sessions[sid]
            for sid in sorted(scenario.sessions, key=str)
        ]
        views: Dict[str, DomainView] = {}
        for domain in domains:
            members = nodes_of[domain]
            member_set = set(members)
            links = self._intra_links(network, member_set)
            gateway, uplink = self._border(
                scenario, member_set, [s for s in sessions], domain
            )
            receivers = tuple(
                DomainReceiver(
                    receiver_id=h.receiver_id,
                    session_id=h.session_id,
                    node=h.node,
                    initial_level=h.receiver.level if not scenario._ran
                    else 1,
                    mode=h.mode,
                )
                for h in scenario.receivers
                if h.node in member_set
            )
            in_domain_sessions = tuple(
                self._session_view(scenario, s.session_id)
                for s in sessions
                if any(r.session_id == s.session_id for r in receivers)
            )
            views[domain] = DomainView(
                domain=domain,
                nodes=tuple(members),
                links=links,
                gateway=gateway,
                uplink_bandwidth=uplink.bandwidth,
                uplink_delay=uplink.delay,
                uplink_queue_limit=uplink.queue.capacity,
                sessions=in_domain_sessions,
                receivers=receivers,
            )
        return views

    # ------------------------------------------------------------------
    def _intra_links(
        self, network: Any, members: set
    ) -> Tuple[DomainLink, ...]:
        links: List[DomainLink] = []
        seen = set()
        for (a, b) in sorted(network.links, key=lambda ab: (str(ab[0]), str(ab[1]))):
            if a not in members or b not in members:
                continue
            if (b, a) in seen:
                continue
            seen.add((a, b))
            link = network.links[(a, b)]
            links.append(DomainLink(a, b, link.bandwidth, link.delay,
                                    link.queue.capacity))
        return tuple(links)

    def _border(
        self, scenario: Any, members: set, sessions: List[Any],
        domain: str = "?",
    ) -> Tuple[Any, Any]:
        """(gateway node, border uplink Link) for one domain."""
        network = scenario.network
        gateway: Optional[Any] = None
        uplink_edge: Optional[Tuple[Any, Any]] = None
        for descriptor in sessions:
            source = descriptor.source
            if source in members:
                raise ValueError(
                    f"session {descriptor.session_id!r} source {source!r} "
                    "lies inside a domain — federation expects sources "
                    "outside every administrative domain"
                )
            for target in sorted(members, key=str):
                path = network.shortest_path_or_none(source, target)
                if path is None:
                    continue
                for prev, hop in zip(path, path[1:]):
                    if hop in members:
                        if gateway is None:
                            gateway, uplink_edge = hop, (prev, hop)
                        elif hop != gateway or (prev, hop) != uplink_edge:
                            raise ValueError(
                                f"domain {domain!r} has multiple border "
                                f"entry points ({gateway!r} via "
                                f"{uplink_edge!r} vs {hop!r} via "
                                f"{(prev, hop)!r}); single-gateway domains "
                                "only"
                            )
                        break
        if gateway is None or uplink_edge is None:
            raise ValueError(
                f"domain {domain!r} unreachable from every session source"
            )
        return gateway, network.links[uplink_edge]

    def _session_view(self, scenario: Any, session_id: Any) -> DomainSession:
        from ..media.source import CBR

        src_app = scenario.sources[session_id]
        return DomainSession(
            session_id=session_id,
            traffic="cbr" if src_app.model == CBR else "vbr",
            peak_to_mean=src_app.peak_to_mean,
            schedule=src_app.schedule,
        )
