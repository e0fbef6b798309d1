"""Unit tests for the oracle (optimal subscription) baseline."""

import pytest

from repro.baselines.oracle import OracleController, optimal_levels
from repro.baselines.session_plan import SessionPlan
from repro.core.session_topology import SessionTree
from repro.core.types import SessionInput
from repro.media.layers import PAPER_SCHEDULE
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network


def topology_a_network(class_a_bw=500e3, class_b_bw=100e3):
    net = Network(Scheduler())
    for n in ["src", "core", "agg_a", "agg_b", "ra", "rb"]:
        net.add_node(n)
    net.add_link("src", "core", bandwidth=10e6)
    net.add_link("core", "agg_a", bandwidth=10e6)
    net.add_link("core", "agg_b", bandwidth=10e6)
    net.add_link("agg_a", "ra", bandwidth=class_a_bw)
    net.add_link("agg_b", "rb", bandwidth=class_b_bw)
    net.build_routes()
    plan = SessionPlan(0, "src", PAPER_SCHEDULE)
    plan.add_receiver("RA", "ra")
    plan.add_receiver("RB", "rb")
    return net, plan


def test_heterogeneous_receivers_get_their_bottleneck_levels():
    net, plan = topology_a_network()
    levels = optimal_levels(net, [plan])
    assert levels[(0, "RA")] == 4  # 480k fits 500k
    assert levels[(0, "RB")] == 2  # 96k fits 100k


def test_shared_bottleneck_splits_fairly():
    """Topology B: n sessions, shared link n*500k -> 4 layers each."""
    net = Network(Scheduler())
    n = 4
    net.add_node("x")
    net.add_node("y")
    net.add_link("x", "y", bandwidth=n * 500e3)
    plans = []
    for i in range(n):
        net.add_node(f"s{i}")
        net.add_node(f"r{i}")
        net.add_link(f"s{i}", "x", bandwidth=10e6)
        net.add_link("y", f"r{i}", bandwidth=10e6)
        plan = SessionPlan(i, f"s{i}", PAPER_SCHEDULE)
        plan.add_receiver(f"rx{i}", f"r{i}")
        plans.append(plan)
    net.build_routes()
    levels = optimal_levels(net, plans)
    assert all(levels[(i, f"rx{i}")] == 4 for i in range(n))


def test_multicast_load_counts_max_not_sum():
    """Two receivers of one session behind a shared 500k link: the link
    carries max(levels), so both can reach level 4."""
    net = Network(Scheduler())
    for n in ["src", "mid", "r1", "r2"]:
        net.add_node(n)
    net.add_link("src", "mid", bandwidth=500e3)
    net.add_link("mid", "r1", bandwidth=10e6)
    net.add_link("mid", "r2", bandwidth=10e6)
    net.build_routes()
    plan = SessionPlan(0, "src", PAPER_SCHEDULE)
    plan.add_receiver("R1", "r1")
    plan.add_receiver("R2", "r2")
    levels = optimal_levels(net, [plan])
    assert levels[(0, "R1")] == 4
    assert levels[(0, "R2")] == 4


def test_unbounded_network_reaches_top_level():
    net = Network(Scheduler())
    net.add_node("s")
    net.add_node("r")
    net.add_link("s", "r", bandwidth=100e6)
    net.build_routes()
    plan = SessionPlan(0, "s", PAPER_SCHEDULE)
    plan.add_receiver("R", "r")
    levels = optimal_levels(net, [plan])
    assert levels[(0, "R")] == 6


def test_infeasible_base_still_reports_base():
    net, plan = topology_a_network(class_b_bw=10e3)  # base 32k doesn't fit
    levels = optimal_levels(net, [plan])
    assert levels[(0, "RB")] == 1


def test_duplicate_receiver_rejected():
    plan = SessionPlan(0, "s", PAPER_SCHEDULE)
    plan.add_receiver("R", "n")
    with pytest.raises(ValueError):
        plan.add_receiver("R", "other")


def test_oracle_controller_suggests_precomputed_levels():
    net, plan = topology_a_network()
    ctrl = OracleController(net, [plan])
    tree = SessionTree(
        0, "src",
        [("src", "core"), ("core", "agg_a"), ("agg_a", "ra"),
         ("core", "agg_b"), ("agg_b", "rb")],
        ["ra", "rb"],
    )
    out = ctrl.update(0.0, [SessionInput(tree=tree, schedule=PAPER_SCHEDULE)])
    assert out == {(0, "ra"): 4, (0, "rb"): 2}


def test_oracle_controller_ignores_unknown_receivers():
    net, plan = topology_a_network()
    ctrl = OracleController(net, [plan])
    tree = SessionTree(0, "src", [("src", "core")], ["core"])
    out = ctrl.update(0.0, [SessionInput(tree=tree, schedule=PAPER_SCHEDULE)])
    assert len(out) == 0
