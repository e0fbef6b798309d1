"""Multi-domain (hierarchical) control — the paper's Fig. 3 architecture.

"Our architecture uses multiple controller agents, each concerned with one
particular administrative domain.  Each domain and controller agent is
unaware of the other controller agents' existence."

:func:`build_multi_domain_topology` constructs a session whose tree spans
``n_domains`` administrative domains, each running its own TopoSense
controller over its own clipped topology view::

      src --- core ---+--- gw1 --- r10, r11, ...   (domain 1, controller at gw1)
                      |
                      +--- gw2 --- r20, r21, ...   (domain 2, controller at gw2)
                      |
                      +--- gwK --- ...             (domain K, controller at gwK)

The scalability claim under test: congestion control is managed per
subtree; each controller sees (and needs) only its domain's portion of the
tree, and a bottleneck inside one domain never involves the other domain's
controller.  :func:`build_two_domain_topology` is the historical two-domain
special case, kept as a thin bit-identical wrapper.

This topology family is also the hand-built test bed for the federated
control plane (:mod:`repro.federation`): each ``gw<k>`` subtree is one
:class:`~repro.federation.DomainView`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.config import TopoSenseConfig
from .scenario import Scenario
from .topologies import BACKBONE_BW

__all__ = [
    "build_multi_domain_topology",
    "build_two_domain_topology",
    "domain_gateways",
    "DOMAIN1_BW",
    "DOMAIN2_BW",
    "DEFAULT_DOMAIN_BWS",
]

#: Domain 1's access bandwidth: fits 4 layers.
DOMAIN1_BW = 500_000.0
#: Domain 2's access bandwidth: fits 2 layers.
DOMAIN2_BW = 100_000.0

#: Default per-domain access bandwidths, cycled when ``n_domains`` exceeds
#: its length — odd domains fit 4 layers, even domains fit 2, so every
#: multi-domain run is heterogeneous out of the box.
DEFAULT_DOMAIN_BWS = (DOMAIN1_BW, DOMAIN2_BW)


def domain_gateways(n_domains: int) -> dict:
    """Controller-name -> gateway-node mapping of the built topology
    (``{"d1": "gw1", ...}``) — the input :meth:`repro.federation.
    DomainPartitioner.by_gateways` wants."""
    return {f"d{d}": f"gw{d}" for d in range(1, n_domains + 1)}


def build_multi_domain_topology(
    n_domains: int = 2,
    receivers_per_domain: int = 2,
    traffic: str = "cbr",
    peak_to_mean: float = 3.0,
    seed: int = 0,
    config: Optional[TopoSenseConfig] = None,
    domain_bws: Optional[Sequence[float]] = None,
) -> Scenario:
    """One session, ``n_domains`` domains, one independent controller each.

    Domain ``d`` (1-based) hangs ``receivers_per_domain`` receivers off
    gateway ``gw<d>`` behind access links of ``domain_bws[(d-1) % len]``
    (default: 500 kb/s and 100 kb/s alternating, optimal 4 and 2 layers).
    Controllers ``d1..dN`` are stationed at the gateways and discover only
    their own domain's subtree; receivers are named ``D<d>-<i>``.

    Construction order is part of the contract: for any fixed arguments the
    build is deterministic, and ``n_domains=2`` reproduces the historical
    :func:`build_two_domain_topology` bit for bit (same nodes, links, RNG
    stream names and event ordering).
    """
    if n_domains < 1:
        raise ValueError("need at least one domain")
    if receivers_per_domain < 1:
        raise ValueError("need at least one receiver per domain")
    bws = tuple(domain_bws) if domain_bws is not None else DEFAULT_DOMAIN_BWS
    if not bws:
        raise ValueError("domain_bws must be non-empty when given")
    domains = range(1, n_domains + 1)

    sc = Scenario(seed=seed)
    sc.add_node("src")
    sc.add_node("core")
    for d in domains:
        sc.add_node(f"gw{d}")
    sc.add_link("src", "core", bandwidth=BACKBONE_BW)
    for d in domains:
        sc.add_link("core", f"gw{d}", bandwidth=BACKBONE_BW)

    members = {d: {f"gw{d}"} for d in domains}
    for i in range(receivers_per_domain):
        for d in domains:
            sc.add_node(f"r{d}{i}")
            sc.add_link(f"gw{d}", f"r{d}{i}", bandwidth=bws[(d - 1) % len(bws)])
            members[d].add(f"r{d}{i}")

    sess = sc.add_session("src", traffic=traffic, peak_to_mean=peak_to_mean)
    for d in domains:
        sc.attach_controller(
            f"gw{d}", name=f"d{d}", domain=members[d], config=config
        )
    for i in range(receivers_per_domain):
        for d in domains:
            sc.add_receiver(
                sess.session_id, f"r{d}{i}", receiver_id=f"D{d}-{i}",
                controller=f"d{d}",
            )
    return sc


def build_two_domain_topology(
    receivers_per_domain: int = 2,
    traffic: str = "cbr",
    seed: int = 0,
) -> Scenario:
    """One session, two domains, two independent controllers.

    Thin wrapper over :func:`build_multi_domain_topology` with
    ``n_domains=2`` — bit-identical to the historical hand-rolled builder:
    domain 1's receivers sit behind :data:`DOMAIN1_BW` access links
    (optimal 4 layers), domain 2's behind :data:`DOMAIN2_BW` (optimal 2).
    """
    return build_multi_domain_topology(
        n_domains=2,
        receivers_per_domain=receivers_per_domain,
        traffic=traffic,
        seed=seed,
    )
