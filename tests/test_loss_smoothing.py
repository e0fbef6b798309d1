"""Tests for the EWMA loss-differentiation extension (paper §V)."""

import numpy as np
import pytest

from repro.core.config import TopoSenseConfig
from repro.core.session_topology import SessionTree
from repro.core.toposense import TopoSense
from repro.core.types import ReceiverReport, SessionInput
from repro.media.layers import PAPER_SCHEDULE


def make_input(level, loss):
    tree = SessionTree(0, "s", [("s", "m"), ("m", "leaf")], ["leaf"])
    return SessionInput(
        tree=tree, schedule=PAPER_SCHEDULE,
        reports={"leaf": ReceiverReport(loss, 100_000.0, level)},
    )


def cfg(**kw):
    return TopoSenseConfig(add_probability=1.0, **kw)


def test_single_burst_interval_filtered():
    """One bursty-loss interval among clean ones must not look congested
    when smoothing is on."""
    ts = TopoSense(config=cfg(loss_ewma=0.3), rng=np.random.default_rng(0))
    t = 0.0
    for _ in range(3):
        t += 2.0
        ts.update(t, [make_input(4, 0.0)])
    t += 2.0
    ts.update(t, [make_input(4, 0.12)])  # one burst: smoothed to 0.036
    diag = ts.last_diagnostics[0]
    assert diag["loss"]["leaf"] == pytest.approx(0.3 * 0.12)
    assert not diag["congestion"]["leaf"]


def test_sustained_congestion_still_detected():
    ts = TopoSense(config=cfg(loss_ewma=0.3), rng=np.random.default_rng(0))
    t = 0.0
    for _ in range(6):
        t += 2.0
        ts.update(t, [make_input(4, 0.12)])
    diag = ts.last_diagnostics[0]
    # EWMA converges to the sustained 0.12, well above p_threshold.
    assert diag["loss"]["leaf"] > 0.09
    assert diag["congestion"]["leaf"]


def test_smoothing_off_by_default():
    ts = TopoSense(config=cfg(), rng=np.random.default_rng(0))
    ts.update(2.0, [make_input(4, 0.12)])
    assert ts.last_diagnostics[0]["loss"]["leaf"] == pytest.approx(0.12)
    assert ts.last_diagnostics[0]["congestion"]["leaf"]


def test_invalid_ewma_rejected():
    with pytest.raises(ValueError):
        TopoSenseConfig(loss_ewma=1.5)
    with pytest.raises(ValueError):
        TopoSenseConfig(loss_ewma=-0.1)


def test_first_sample_not_diluted():
    """With no history the first sample is taken at face value (no phantom
    zero-history average)."""
    ts = TopoSense(config=cfg(loss_ewma=0.3), rng=np.random.default_rng(0))
    ts.update(2.0, [make_input(4, 0.5)])
    assert ts.last_diagnostics[0]["loss"]["leaf"] == pytest.approx(0.5)
