"""Reconstructions of the paper's simulation topologies (Fig. 5).

The paper describes, but does not dimension, two topologies:

**Topology A** — one session, two classes of receivers behind different
bottlenecks; the receiver count is swept.  We build::

    src --- core --- agg_a --- leaf access links (class A, 500 Kb/s -> 4 layers)
                 \\-- agg_b --- leaf access links (class B, 100 Kb/s -> 2 layers)

All backbone links are 10 Mb/s; every link has the paper's 200 ms delay, so a
receiver is 3 hops / 600 ms from the source — matching the "maximum path
latency between source and receiver ... is 600 ms" remark in §IV.

**Topology B** — ``n`` sessions with one receiver each, all crossing one
shared link whose capacity is ``n * 500 Kb/s`` so each session can ideally
hold 4 layers (cumulative 480 Kb/s)::

    s1..sn --- x ===shared=== y --- r1..rn

The controller is stationed at a source node in both topologies, as in the
paper, so control traffic shares the congested links.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.config import TopoSenseConfig
from .scenario import Scenario

__all__ = [
    "build_topology_a",
    "build_topology_b",
    "CLASS_A_BW",
    "CLASS_B_BW",
    "BACKBONE_BW",
    "PER_SESSION_FAIR_BW",
]

#: Class-A access bandwidth: fits 4 layers (480 Kb/s) with a little headroom.
CLASS_A_BW = 500_000.0
#: Class-B access bandwidth: fits 2 layers (96 Kb/s).
CLASS_B_BW = 100_000.0
#: Backbone bandwidth (never the bottleneck).
BACKBONE_BW = 10_000_000.0
#: Topology B: the shared link provides this much per session (4 layers each).
PER_SESSION_FAIR_BW = 500_000.0


def build_topology_a(
    n_receivers: int = 4,
    traffic: str = "cbr",
    peak_to_mean: float = 3.0,
    seed: int = 0,
    staleness: float = 0.0,
    config: Optional[TopoSenseConfig] = None,
    algorithm: Optional[Any] = None,
    receiver_mode: str = "controlled",
    leave_latency: float = 1.0,
) -> Scenario:
    """Topology A: one heterogeneous session, ``n_receivers`` split between
    the two bandwidth classes (class A gets the extra one when odd).

    Optimal levels: 4 for class-A receivers, 2 for class-B receivers.
    """
    if n_receivers < 1:
        raise ValueError("need at least one receiver")
    sc = Scenario(seed=seed, leave_latency=leave_latency)
    sc.add_node("src")
    sc.add_node("core")
    sc.add_node("agg_a")
    sc.add_node("agg_b")
    sc.add_link("src", "core", bandwidth=BACKBONE_BW)
    sc.add_link("core", "agg_a", bandwidth=BACKBONE_BW)
    sc.add_link("core", "agg_b", bandwidth=BACKBONE_BW)

    n_a = (n_receivers + 1) // 2
    n_b = n_receivers - n_a
    for i in range(n_a):
        sc.add_node(f"ra{i}")
        sc.add_link("agg_a", f"ra{i}", bandwidth=CLASS_A_BW)
    for i in range(n_b):
        sc.add_node(f"rb{i}")
        sc.add_link("agg_b", f"rb{i}", bandwidth=CLASS_B_BW)

    sess = sc.add_session("src", traffic=traffic, peak_to_mean=peak_to_mean)
    if receiver_mode == "controlled":
        sc.attach_controller(
            "src", algorithm=algorithm, config=config, staleness=staleness
        )
    for i in range(n_a):
        sc.add_receiver(sess.session_id, f"ra{i}", receiver_id=f"A{i}", mode=receiver_mode)
    for i in range(n_b):
        sc.add_receiver(sess.session_id, f"rb{i}", receiver_id=f"B{i}", mode=receiver_mode)
    return sc


def build_topology_b(
    n_sessions: int = 4,
    traffic: str = "cbr",
    peak_to_mean: float = 3.0,
    seed: int = 0,
    staleness: float = 0.0,
    config: Optional[TopoSenseConfig] = None,
) -> Scenario:
    """Topology B: ``n_sessions`` sessions (one receiver each) share one link
    of capacity ``n_sessions * PER_SESSION_FAIR_BW``.

    Optimal level: 4 layers for every session (480 of 500 Kb/s fair share).
    """
    if n_sessions < 1:
        raise ValueError("need at least one session")
    sc = Scenario(seed=seed)
    sc.add_node("x")
    sc.add_node("y")
    sc.add_link("x", "y", bandwidth=n_sessions * PER_SESSION_FAIR_BW)
    session_ids = []
    for i in range(n_sessions):
        sc.add_node(f"s{i}")
        sc.add_node(f"r{i}")
        sc.add_link(f"s{i}", "x", bandwidth=BACKBONE_BW)
        sc.add_link("y", f"r{i}", bandwidth=BACKBONE_BW)
        sess = sc.add_session(f"s{i}", traffic=traffic, peak_to_mean=peak_to_mean)
        session_ids.append(sess.session_id)
    # Controller at the first source node, as in the paper.
    sc.attach_controller("s0", config=config, staleness=staleness)
    for i, sid in enumerate(session_ids):
        sc.add_receiver(sid, f"r{i}", receiver_id=f"rx{i}")
    return sc
