"""Unit tests for stage 2: link-capacity estimation."""

import math

import pytest

from repro.core.capacity import LinkCapacityEstimator, LinkObservation
from repro.core.config import TopoSenseConfig


def cfg(**kw):
    defaults = dict(
        link_loss_threshold=0.05,
        session_loss_threshold=0.05,
        capacity_inflation=0.02,
        capacity_reset_period=10,
    )
    defaults.update(kw)
    return TopoSenseConfig(**defaults)


LINK = ("u", "v")


def obs(sid, loss, bytes_):
    return LinkObservation(sid, loss, bytes_)


def test_unknown_link_is_infinite():
    est = LinkCapacityEstimator(cfg())
    assert est.capacity(LINK) == math.inf


def test_no_loss_keeps_infinite():
    est = LinkCapacityEstimator(cfg())
    est.update({LINK: [obs(1, 0.0, 100_000)]}, interval=2.0)
    assert est.capacity(LINK) == math.inf


def test_congested_link_gets_estimated():
    est = LinkCapacityEstimator(cfg())
    # One session, 10% loss, 125_000 bytes over 2s = 500 Kb/s observed.
    est.update({LINK: [obs(1, 0.10, 125_000)]}, interval=2.0)
    assert est.capacity(LINK) == pytest.approx(500_000.0)


def test_all_sessions_must_be_lossy():
    est = LinkCapacityEstimator(cfg())
    # Session 2 is clean: bottleneck is downstream of the branch, not here.
    est.update(
        {LINK: [obs(1, 0.30, 100_000), obs(2, 0.0, 100_000)]}, interval=2.0
    )
    assert est.capacity(LINK) == math.inf


def test_overall_loss_threshold_byte_weighted():
    est = LinkCapacityEstimator(cfg(link_loss_threshold=0.2))
    # Both lossy, but byte-weighted mean 0.06*0.5+0.06*0.5 = 0.06 < 0.2.
    est.update(
        {LINK: [obs(1, 0.06, 50_000), obs(2, 0.06, 50_000)]}, interval=2.0
    )
    assert est.capacity(LINK) == math.inf


def test_estimate_sums_all_sessions_bytes():
    est = LinkCapacityEstimator(cfg())
    est.update(
        {LINK: [obs(1, 0.10, 100_000), obs(2, 0.20, 150_000)]}, interval=2.0
    )
    assert est.capacity(LINK) == pytest.approx(250_000 * 8 / 2.0)


def test_inflation_each_quiet_interval():
    est = LinkCapacityEstimator(cfg(capacity_inflation=0.05))
    est.update({LINK: [obs(1, 0.10, 125_000)]}, interval=2.0)
    c0 = est.capacity(LINK)
    est.update({LINK: [obs(1, 0.0, 100_000)]}, interval=2.0)
    assert est.capacity(LINK) == pytest.approx(c0 * 1.05)
    est.update({LINK: [obs(1, 0.0, 100_000)]}, interval=2.0)
    assert est.capacity(LINK) == pytest.approx(c0 * 1.05**2)


def test_no_downward_ratchet_while_congestion_persists():
    """Paper: the estimate is computed once, then only inflated until the
    periodic reset.  Continued loss with falling throughput (queue drain
    after a reduction) must NOT drag the estimate down."""
    est = LinkCapacityEstimator(cfg(capacity_inflation=0.02))
    est.update({LINK: [obs(1, 0.10, 125_000)]}, interval=2.0)
    c0 = est.capacity(LINK)
    est.update({LINK: [obs(1, 0.20, 30_000)]}, interval=2.0)  # drain interval
    assert est.capacity(LINK) == pytest.approx(c0 * 1.02)


def test_periodic_reset_to_infinity():
    est = LinkCapacityEstimator(cfg(capacity_reset_period=3))
    est.update({LINK: [obs(1, 0.10, 125_000)]}, interval=2.0)  # set, age 0
    est.update({LINK: [obs(1, 0.0, 1)]}, interval=2.0)  # age 1
    est.update({LINK: [obs(1, 0.0, 1)]}, interval=2.0)  # age 2
    assert est.capacity(LINK) != math.inf
    est.update({LINK: [obs(1, 0.0, 1)]}, interval=2.0)  # age 3 -> reset
    assert est.capacity(LINK) == math.inf


def test_reset_then_relearn():
    est = LinkCapacityEstimator(cfg(capacity_reset_period=2))
    est.update({LINK: [obs(1, 0.10, 125_000)]}, interval=2.0)
    est.update({LINK: [obs(1, 0.10, 60_000)]}, interval=2.0)  # age 1: inflate only
    est.update({LINK: [obs(1, 0.0, 1)]}, interval=2.0)  # age 2 -> reset to inf
    assert est.capacity(LINK) == math.inf
    est.update({LINK: [obs(1, 0.10, 60_000)]}, interval=2.0)  # re-learn fresh
    assert est.capacity(LINK) == pytest.approx(60_000 * 8 / 2.0)


def test_unknown_loss_treated_as_no_evidence():
    est = LinkCapacityEstimator(cfg())
    est.update({LINK: [obs(1, None, 100_000)]}, interval=2.0)
    assert est.capacity(LINK) == math.inf


def test_partial_unknown_blocks_estimation():
    # Two sessions share the link; one has no loss info: "all sessions
    # lossy" cannot be established.
    est = LinkCapacityEstimator(cfg())
    est.update(
        {LINK: [obs(1, 0.3, 100_000), obs(2, None, 50_000)]}, interval=2.0
    )
    assert est.capacity(LINK) == math.inf


def test_zero_bytes_no_estimate():
    est = LinkCapacityEstimator(cfg())
    est.update({LINK: [obs(1, 0.5, 0.0)]}, interval=2.0)
    assert est.capacity(LINK) == math.inf


def test_vanished_link_ages_out():
    est = LinkCapacityEstimator(cfg(capacity_reset_period=2))
    est.update({LINK: [obs(1, 0.10, 125_000)]}, interval=2.0)
    est.update({}, interval=2.0)  # link no longer in any tree
    est.update({}, interval=2.0)
    assert est.capacity(LINK) == math.inf


def test_reset_clears_everything():
    est = LinkCapacityEstimator(cfg())
    est.update({LINK: [obs(1, 0.10, 125_000)]}, interval=2.0)
    est.reset()
    assert est.capacity(LINK) == math.inf


def test_invalid_interval():
    est = LinkCapacityEstimator(cfg())
    with pytest.raises(ValueError):
        est.update({}, interval=0.0)
