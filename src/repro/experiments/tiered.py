"""Random tiered Internet topologies — the paper's Fig. 2 structure.

"The first tier consists of national ISPs, the second tier of regional
ISPs, the third local ISPs and so on.  All of the recipients (and possibly
the source) are connected to institutional ISPs. ... the higher tiers have a
larger bandwidth capacity than those of the lower tiers" — the *last mile
problem*.

:func:`build_tiered_topology` generates such a hierarchy with randomized
fan-outs and per-tier bandwidths, places the source at the national tier and
receivers behind institutional access links.  It is the test bed for running
TopoSense beyond the two hand-built evaluation topologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.config import TopoSenseConfig
from ..simnet.rng import Pcg64
from .scenario import Scenario

__all__ = ["TierSpec", "build_tiered_topology", "DEFAULT_TIERS"]


@dataclass(frozen=True)
class TierSpec:
    """One tier of the hierarchy."""

    name: str
    #: How many children each node of the tier above sprouts (inclusive range).
    fanout: Tuple[int, int]
    #: Link bandwidth from the tier above into this tier (inclusive range, b/s).
    bandwidth: Tuple[float, float]


#: National -> regional -> local -> institutional, with the paper's
#: "higher tiers have larger capacity" gradient.  Institutional access
#: bandwidths straddle the layer boundaries so optima differ per receiver.
DEFAULT_TIERS: Tuple[TierSpec, ...] = (
    TierSpec("regional", fanout=(2, 3), bandwidth=(8e6, 10e6)),
    TierSpec("local", fanout=(1, 3), bandwidth=(2e6, 4e6)),
    TierSpec("institutional", fanout=(1, 3), bandwidth=(64e3, 1.2e6)),
)


def build_tiered_topology(
    seed: int = 0,
    tiers: Sequence[TierSpec] = DEFAULT_TIERS,
    traffic: str = "cbr",
    peak_to_mean: float = 3.0,
    config: Optional[TopoSenseConfig] = None,
    receiver_fraction: float = 1.0,
    max_receivers: int = 24,
) -> Scenario:
    """Generate a random tiered scenario with one session and a controller.

    Receivers are placed on leaf (institutional) nodes — each gets its own
    host node behind the institutional access link, so the last mile is the
    bottleneck, as in the paper's tiered model.  ``receiver_fraction``
    subsamples the leaves; ``max_receivers`` caps the total.
    """
    if not 0 < receiver_fraction <= 1:
        raise ValueError("receiver_fraction must be in (0, 1]")
    rng = Pcg64(seed)
    sc = Scenario(seed=seed)
    sc.add_node("src")
    frontier = ["src"]
    counter = 0
    for tier in tiers:
        next_frontier: List[str] = []
        for parent in frontier:
            fanout = rng.integers(tier.fanout[0], tier.fanout[1] + 1)
            for _ in range(fanout):
                name = f"{tier.name}{counter}"
                counter += 1
                sc.add_node(name)
                bw = rng.uniform(*tier.bandwidth)
                sc.add_link(parent, name, bandwidth=bw)
                next_frontier.append(name)
        frontier = next_frontier

    # Receiver hosts behind the institutional leaves.
    leaves = list(frontier)
    rng.shuffle(leaves)
    n = max(1, min(int(len(leaves) * receiver_fraction), max_receivers))
    chosen = leaves[:n]
    sess = sc.add_session("src", traffic=traffic, peak_to_mean=peak_to_mean)
    sc.attach_controller("src", config=config)
    for i, leaf in enumerate(chosen):
        host = f"h{i}"
        sc.add_node(host)
        # Host LAN: never the bottleneck (the institutional uplink is).
        sc.add_link(leaf, host, bandwidth=10e6, delay=0.01)
        sc.add_receiver(sess.session_id, host, receiver_id=f"R{i}")
    return sc
