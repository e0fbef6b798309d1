"""Unit tests for stage 4: fair bandwidth sharing on shared links."""

import math

import pytest

from repro.core.session_topology import SessionTree
from repro.core.sharing import (
    compute_fair_shares,
    compute_max_demands,
    find_shared_links,
)
from repro.media.layers import PAPER_SCHEDULE, LayerSchedule


def caps(mapping):
    return lambda e: mapping.get(e, math.inf)


def two_sessions_shared_link():
    """Sessions A and B both cross (x, y); receivers diverge below y."""
    ta = SessionTree("A", "sa", [("sa", "x"), ("x", "y"), ("y", "ra")], ["ra"])
    tb = SessionTree("B", "sb", [("sb", "x"), ("x", "y"), ("y", "rb")], ["rb"])
    return ta, tb


class TestFindSharedLinks:
    def test_shared_detection(self):
        ta, tb = two_sessions_shared_link()
        shared = find_shared_links([ta, tb])
        assert set(shared) == {("x", "y")}
        assert sorted(shared[("x", "y")]) == ["A", "B"]

    def test_disjoint_trees_share_nothing(self):
        ta = SessionTree("A", 1, [(1, 2)], [2])
        tb = SessionTree("B", 3, [(3, 4)], [4])
        assert find_shared_links([ta, tb]) == {}

    def test_single_session_never_shared(self):
        ta, _ = two_sessions_shared_link()
        assert find_shared_links([ta]) == {}


class TestMaxDemands:
    def test_unbounded_gives_full_session(self):
        ta, tb = two_sessions_shared_link()
        shared = find_shared_links([ta, tb])
        base = {"A": 32_000.0, "B": 32_000.0}
        d = compute_max_demands(ta, PAPER_SCHEDULE, caps({}), shared, base)
        assert d["ra"] == PAPER_SCHEDULE.cumulative(6)
        assert d["sa"] == PAPER_SCHEDULE.cumulative(6)

    def test_shared_capacity_minus_other_bases(self):
        ta, tb = two_sessions_shared_link()
        shared = find_shared_links([ta, tb])
        base = {"A": 32_000.0, "B": 32_000.0}
        # 512 Kb/s shared link; others take base 32 -> 480 available -> 4 layers.
        d = compute_max_demands(
            ta, PAPER_SCHEDULE, caps({("x", "y"): 512_000.0}), shared, base
        )
        assert d["ra"] == PAPER_SCHEDULE.cumulative(4)

    def test_base_layer_always_granted(self):
        ta, tb = two_sessions_shared_link()
        shared = find_shared_links([ta, tb])
        base = {"A": 32_000.0, "B": 32_000.0}
        # Tiny link: available < base, but x_i floors at the base rate.
        d = compute_max_demands(
            ta, PAPER_SCHEDULE, caps({("x", "y"): 10_000.0}), shared, base
        )
        assert d["ra"] == PAPER_SCHEDULE.cumulative(1)

    def test_internal_demand_is_max_of_children(self):
        t = SessionTree("A", 1, [(1, 2), (2, 3), (2, 4)], [3, 4])
        d = compute_max_demands(
            t, PAPER_SCHEDULE,
            caps({(2, 3): 100_000.0, (2, 4): 700_000.0}), {}, {"A": 32_000.0},
        )
        # 100 Kb/s fits layers 1+2 = 96 Kb/s -> level 2.
        assert d[3] == pytest.approx(PAPER_SCHEDULE.cumulative(2))
        assert d[4] == pytest.approx(PAPER_SCHEDULE.cumulative(4))
        assert d[2] == d[4]


class TestFairShares:
    def test_no_shared_links_empty(self):
        ta = SessionTree("A", 1, [(1, 2)], [2])
        assert compute_fair_shares([ta], {"A": PAPER_SCHEDULE}, caps({})) == {}

    def test_infinite_capacity_gives_infinite_share(self):
        ta, tb = two_sessions_shared_link()
        fair = compute_fair_shares(
            [ta, tb], {"A": PAPER_SCHEDULE, "B": PAPER_SCHEDULE}, caps({})
        )
        assert fair[(("x", "y"), "A")] == math.inf
        assert fair[(("x", "y"), "B")] == math.inf

    def test_equal_demands_split_evenly(self):
        ta, tb = two_sessions_shared_link()
        fair = compute_fair_shares(
            [ta, tb],
            {"A": PAPER_SCHEDULE, "B": PAPER_SCHEDULE},
            caps({("x", "y"): 1_000_000.0}),
        )
        assert fair[(("x", "y"), "A")] == pytest.approx(500_000.0)
        assert fair[(("x", "y"), "B")] == pytest.approx(500_000.0)

    def test_paper_example_proportional_to_downstream_bottleneck(self):
        """Paper: one session bottlenecked at ~250 Kb/s downstream should not
        get the same share as one that can use 1 Mb/s."""
        ta = SessionTree("A", "sa", [("sa", "x"), ("x", "y"), ("y", "ra")], ["ra"])
        tb = SessionTree("B", "sb", [("sb", "x"), ("x", "y"), ("y", "rb")], ["rb"])
        capacity = caps({
            ("x", "y"): 1_200_000.0,
            ("y", "ra"): 250_000.0,   # A's downstream bottleneck -> 3 layers (224k)
            ("y", "rb"): 1_000_000.0,  # B can take 5 layers (992k)
        })
        fair = compute_fair_shares(
            [ta, tb], {"A": PAPER_SCHEDULE, "B": PAPER_SCHEDULE}, capacity
        )
        share_a = fair[(("x", "y"), "A")]
        share_b = fair[(("x", "y"), "B")]
        assert share_b > share_a
        # Proportional split of 1.2 Mb/s by x_A=224k, x_B=992k.
        assert share_a == pytest.approx(1_200_000 * 224 / (224 + 992))
        assert share_b == pytest.approx(1_200_000 * 992 / (224 + 992))

    def test_sessions_with_different_schedules(self):
        small = LayerSchedule(n_layers=2, base_rate=10_000)
        ta, tb = two_sessions_shared_link()
        fair = compute_fair_shares(
            [ta, tb],
            {"A": small, "B": PAPER_SCHEDULE},
            caps({("x", "y"): 300_000.0}),
        )
        xa = small.cumulative(2)  # 30k max for A
        # B: available = 300k - 10k(base of A) = 290k -> level 3 (224k).
        xb = PAPER_SCHEDULE.cumulative(3)
        assert fair[(("x", "y"), "A")] == pytest.approx(300_000 * xa / (xa + xb))
        assert fair[(("x", "y"), "B")] == pytest.approx(300_000 * xb / (xa + xb))

    def test_three_way_share(self):
        trees = []
        for sid in ("A", "B", "C"):
            trees.append(
                SessionTree(
                    sid, f"s{sid}",
                    [(f"s{sid}", "x"), ("x", "y"), ("y", f"r{sid}")],
                    [f"r{sid}"],
                )
            )
        fair = compute_fair_shares(
            trees, {t.session_id: PAPER_SCHEDULE for t in trees},
            caps({("x", "y"): 900_000.0}),
        )
        shares = [fair[(("x", "y"), sid)] for sid in ("A", "B", "C")]
        assert shares[0] == pytest.approx(shares[1]) == pytest.approx(shares[2])
        assert sum(shares) == pytest.approx(900_000.0)
