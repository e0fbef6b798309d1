"""Unit tests for the evaluation metrics."""


import pytest

from repro.metrics.deviation import mean_relative_deviation, relative_deviation
from repro.metrics.fairness import bandwidth_shares, jain_index
from repro.metrics.stability import worst_receiver_stability
from repro.simnet.tracing import StepTrace


def trace(points, t0=0.0, v0=0):
    tr = StepTrace(t0, v0)
    for t, v in points:
        tr.record(t, v)
    return tr


class TestRelativeDeviation:
    def test_perfect_subscription_zero_deviation(self):
        tr = trace([], v0=4)
        assert relative_deviation(tr, 4, 0.0, 100.0) == 0.0

    def test_constant_offset(self):
        tr = trace([], v0=3)  # always one below optimal 4
        assert relative_deviation(tr, 4, 0.0, 100.0) == pytest.approx(0.25)

    def test_paper_formula_time_weighting(self):
        # Half the window at 4 (optimal), half at 2: |2-4|*50 / (4*100) = 0.25
        tr = trace([(50.0, 2)], v0=4)
        assert relative_deviation(tr, 4, 0.0, 100.0) == pytest.approx(0.25)

    def test_overshoot_counts_as_deviation(self):
        tr = trace([], v0=6)
        assert relative_deviation(tr, 4, 0.0, 100.0) == pytest.approx(0.5)

    def test_window_selects_segment(self):
        tr = trace([(50.0, 2)], v0=4)
        assert relative_deviation(tr, 4, 0.0, 50.0) == 0.0
        assert relative_deviation(tr, 4, 50.0, 100.0) == pytest.approx(0.5)

    def test_invalid_window(self):
        tr = trace([], v0=4)
        with pytest.raises(ValueError):
            relative_deviation(tr, 4, 10.0, 10.0)

    def test_invalid_optimal(self):
        tr = trace([], v0=4)
        with pytest.raises(ValueError):
            relative_deviation(tr, 0, 0.0, 10.0)

    def test_mean_over_receivers(self):
        t1 = trace([], v0=4)
        t2 = trace([], v0=2)
        m = mean_relative_deviation([(t1, 4.0), (t2, 4.0)], 0.0, 10.0)
        assert m == pytest.approx(0.25)

    def test_mean_requires_receivers(self):
        with pytest.raises(ValueError):
            mean_relative_deviation([], 0.0, 10.0)


class TestStability:
    def test_change_count(self):
        tr = trace([(10.0, 2), (20.0, 3), (30.0, 2)], v0=1)
        assert tr.num_changes(0.0, 100.0) == 3
        assert tr.num_changes(15.0, 100.0) == 2

    def test_worst_receiver(self):
        quiet = trace([(10.0, 2)], v0=1)
        busy = trace([(10.0, 2), (20.0, 1), (30.0, 2)], v0=1)
        count, gap = worst_receiver_stability([quiet, busy], 0.0, 100.0)
        assert count == 3
        assert gap == pytest.approx(10.0)

    def test_worst_receiver_empty(self):
        with pytest.raises(ValueError):
            worst_receiver_stability([], 0.0, 100.0)

    def test_stable_trace_gap_is_window(self):
        tr = trace([], v0=4)
        count, gap = worst_receiver_stability([tr], 0.0, 1200.0)
        assert count == 0
        assert gap == pytest.approx(1200.0)


class TestFairness:
    def test_jain_perfectly_fair(self):
        assert jain_index([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_jain_maximally_unfair(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_jain_intermediate(self):
        v = jain_index([1.0, 2.0])
        assert 0.5 < v < 1.0
        assert v == pytest.approx(9 / 10)

    def test_jain_all_zero(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_jain_validation(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([1.0, -1.0])

    def test_bandwidth_shares(self):
        shares = bandwidth_shares([100.0, 300.0])
        assert shares == pytest.approx([0.25, 0.75])
        assert sum(shares) == pytest.approx(1.0)

    def test_bandwidth_shares_zero_total(self):
        with pytest.raises(ValueError):
            bandwidth_shares([0.0, 0.0])
