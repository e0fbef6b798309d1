"""Multi-domain (hierarchical) control — the paper's Fig. 3 architecture.

"Our architecture uses multiple controller agents, each concerned with one
particular administrative domain.  Each domain and controller agent is
unaware of the other controller agents' existence."

:func:`build_two_domain_topology` constructs a session whose tree spans two
administrative domains, each running its own TopoSense controller over its
own clipped topology view::

      src --- core ---+--- gw1 --- r10, r11, ...   (domain 1, controller at gw1)
                      |
                      +--- gw2 --- r20, r21, ...   (domain 2, controller at gw2)

The scalability claim under test: congestion control is managed per
subtree; each controller sees (and needs) only its domain's portion of the
tree, and a bottleneck inside one domain never involves the other domain's
controller.

The federated control plane (:mod:`repro.federation`) runs the same star
with any number of domains, one shard per domain:
:func:`~repro.federation.experiment.build_federated_views` describes each
``gw<d>`` subtree as a :class:`~repro.federation.shard.DomainView` straight from
this layout, with no global scenario.
"""

from __future__ import annotations

from .scenario import Scenario
from .topologies import BACKBONE_BW

__all__ = [
    "build_two_domain_topology",
    "DEFAULT_DOMAIN_BWS",
]

#: Per-domain access bandwidths, cycled over the domains: 500 kb/s fits 4
#: layers, 100 kb/s fits 2, so every multi-domain run is heterogeneous.
DEFAULT_DOMAIN_BWS = (500_000.0, 100_000.0)


def build_two_domain_topology(
    receivers_per_domain: int = 2,
    seed: int = 0,
) -> Scenario:
    """One session, two domains, two independent controllers.

    Domain ``d`` hangs ``receivers_per_domain`` receivers off gateway
    ``gw<d>`` behind access links of ``DEFAULT_DOMAIN_BWS[d - 1]``
    (optimal 4 and 2 layers).  Controllers ``d1`` and ``d2`` are stationed
    at the gateways and discover only their own domain's subtree;
    receivers are named ``D<d>-<i>``.  Construction order is part of the
    contract: it fixes the RNG stream names and event ordering.
    """
    if receivers_per_domain < 1:
        raise ValueError("need at least one receiver per domain")
    domains = (1, 2)

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
            sc.add_link(f"gw{d}", f"r{d}{i}", bandwidth=DEFAULT_DOMAIN_BWS[d - 1])
            members[d].add(f"r{d}{i}")

    sess = sc.add_session("src")
    for d in domains:
        sc.attach_controller(f"gw{d}", name=f"d{d}", domain=members[d])
    for i in range(receivers_per_domain):
        for d in domains:
            sc.add_receiver(
                sess.session_id, f"r{d}{i}", receiver_id=f"D{d}-{i}",
                controller=f"d{d}",
            )
    return sc
