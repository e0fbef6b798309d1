"""Unit tests for stage 1: congestion-state computation."""

import pytest

from repro.core.config import TopoSenseConfig
from repro.core.congestion import (
    compute_congestion,
    compute_loss_rates,
    compute_subtree_bytes,
)
from repro.core.session_topology import SessionTree


CFG = TopoSenseConfig(p_threshold=0.05, eta_similar=0.6, similar_tolerance=0.5)


def tree():
    r"""    1
           / \
          2   5
         / \   \
        3   4   6
    """
    return SessionTree("s", 1, [(1, 2), (2, 3), (2, 4), (1, 5), (5, 6)],
                       [3, 4, 6])


class TestLossRates:
    def test_internal_loss_is_min_of_children(self):
        loss = compute_loss_rates(tree(), {3: 0.10, 4: 0.02, 6: 0.0})
        assert loss[2] == pytest.approx(0.02)
        assert loss[5] == pytest.approx(0.0)
        assert loss[1] == pytest.approx(0.0)

    def test_all_children_lossy_propagates(self):
        loss = compute_loss_rates(tree(), {3: 0.10, 4: 0.08, 6: 0.2})
        assert loss[2] == pytest.approx(0.08)
        assert loss[1] == pytest.approx(0.08)

    def test_missing_leaf_reports_excluded(self):
        loss = compute_loss_rates(tree(), {3: 0.10})
        assert loss[3] == pytest.approx(0.10)
        assert loss[4] is None
        assert loss[2] == pytest.approx(0.10)  # min over known children only

    def test_all_missing_gives_none(self):
        loss = compute_loss_rates(tree(), {})
        assert loss[1] is None
        assert loss[2] is None


class TestCongestion:
    def test_leaf_over_threshold_congested(self):
        t = tree()
        loss = compute_loss_rates(t, {3: 0.10, 4: 0.0, 6: 0.0})
        cong = compute_congestion(t, loss, CFG)
        assert cong[3] is True
        assert cong[4] is False
        assert cong[2] is False  # one child clean -> internal not congested

    def test_leaf_at_threshold_not_congested(self):
        t = tree()
        loss = compute_loss_rates(t, {3: 0.05, 4: 0.0, 6: 0.0})
        cong = compute_congestion(t, loss, CFG)
        assert cong[3] is False

    def test_internal_congested_when_children_similarly_lossy(self):
        t = tree()
        loss = compute_loss_rates(t, {3: 0.10, 4: 0.11, 6: 0.0})
        cong = compute_congestion(t, loss, CFG)
        assert cong[2] is True
        assert cong[1] is False  # child 5 is clean

    def test_internal_not_congested_when_losses_dissimilar(self):
        t = tree()
        # Both above threshold but wildly different: probably different causes.
        loss = compute_loss_rates(t, {3: 0.06, 4: 0.90, 6: 0.0})
        cong = compute_congestion(t, loss, CFG)
        assert cong[2] is False
        # The individual leaves are still congested though.
        assert cong[3] is True and cong[4] is True

    def test_parent_congestion_propagates_down(self):
        t = tree()
        # Everyone lossy and similar -> root congested -> everything congested.
        loss = compute_loss_rates(t, {3: 0.10, 4: 0.10, 6: 0.10})
        cong = compute_congestion(t, loss, CFG)
        assert all(cong.values())

    def test_eta_similar_fraction(self):
        # Node 2 has 3 lossy children but none close to the mean -> not
        # congested; a clean sibling leaf keeps the root clean too.
        t = SessionTree("s", 1, [(1, 2), (2, 3), (2, 4), (2, 5), (1, 6)],
                        [3, 4, 5, 6])
        loss = compute_loss_rates(t, {3: 0.06, 4: 0.06, 5: 0.9, 6: 0.0})
        cong = compute_congestion(t, loss, CFG)
        # mean = 0.34; 0.06 deviates 0.28 > 0.17 tolerance; 0.9 deviates 0.56.
        assert cong[2] is False
        assert cong[1] is False

    def test_single_child_chain_inherits_congestion(self):
        # With one child the similarity condition is trivially satisfied, so
        # a chain node is congested whenever its only child is (paper rule).
        t = SessionTree("s", 1, [(1, 2), (2, 3)], [3])
        loss = compute_loss_rates(t, {3: 0.2})
        cong = compute_congestion(t, loss, CFG)
        assert cong[2] is True and cong[1] is True

    def test_missing_children_reports_block_internal_congestion(self):
        t = tree()
        loss = compute_loss_rates(t, {3: 0.10})  # node 4 unknown
        cong = compute_congestion(t, loss, CFG)
        assert cong[2] is False

    def test_unreported_leaf_not_congested(self):
        t = tree()
        loss = compute_loss_rates(t, {})
        cong = compute_congestion(t, loss, CFG)
        assert not any(cong.values())

    def test_single_receiver_chain(self):
        t = SessionTree("s", 1, [(1, 2), (2, 3)], [3])
        loss = compute_loss_rates(t, {3: 0.2})
        cong = compute_congestion(t, loss, CFG)
        # Single child is trivially "similar to the mean".
        assert cong[3] and cong[2] and cong[1]


class TestSubtreeBytes:
    def test_max_over_subtree(self):
        t = tree()
        out = compute_subtree_bytes(t, {3: 100.0, 4: 500.0, 6: 250.0})
        assert out[3] == 100.0
        assert out[2] == 500.0
        assert out[5] == 250.0
        assert out[1] == 500.0

    def test_missing_leaf_counts_zero(self):
        t = tree()
        out = compute_subtree_bytes(t, {3: 100.0})
        assert out[4] == 0.0
        assert out[2] == 100.0
