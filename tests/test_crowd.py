"""Tests for the flash-crowd experiment (``python -m repro crowd``)."""

import json

import pytest

from repro.experiments.crowd import (
    build_crowd_scenario,
    default_crowd_spec,
    edge_node_names,
    render_crowd_report,
    run_crowd,
)
from repro.obs.run import strip_timings
from repro.workloads.spec import WorkloadSpec


def _small_sweep(**kw):
    defaults = dict(
        seed=2, duration=40.0, sizes=(12,), loss_rates=(0.0, 0.25),
        n_edges=3, incumbents=2, federated_crowd=6,
    )
    defaults.update(kw)
    return run_crowd(**defaults)


def _stripped(**kw):
    return strip_timings(_small_sweep(**kw), ("wall_s",))


def test_crowd_sweep_passes_all_gates():
    result = _small_sweep()
    assert result["ok"]
    assert result["replay"]["identical"]
    assert result["attribution_ok"]
    assert result["control_ok"]
    assert result["federated"]["ok"]
    # Gate (b)'s substance: the lossy point's loss signal is channel noise
    # and the report carries stability alongside it.
    lossy = [p for p in result["points"] if p["loss_rate"] > 0]
    assert lossy
    for p in lossy:
        assert p["attribution"]["misattribution_rate"] > 0
        assert "max_changes" in p["stability"]
    # Every point saw the full crowd join.
    for p in result["points"]:
        assert p["workload"]["peak_live"] == p["size"]
    report = render_crowd_report(result)
    assert "bit-identical" in report
    assert "RESULT: OK" in report


def test_crowd_result_is_reproducible_and_json_safe():
    one = _stripped(federated_crowd=0)
    two = _stripped(federated_crowd=0)
    assert one == two
    json.dumps(one)  # fully serialisable
    assert all("wall_s" not in p for p in one["points"])


def test_crowd_explicit_spec_replays_and_rejects_multi_size():
    _sc, session_ids = build_crowd_scenario(seed=2, n_edges=3, incumbents=2)
    spec = default_crowd_spec(12, edge_node_names(3), session_ids,
                              duration=40.0, seed=2)
    loaded = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    fresh = _stripped(federated_crowd=0)
    replayed = _stripped(federated_crowd=0, spec=loaded)
    assert fresh == replayed
    with pytest.raises(ValueError, match="exactly one size"):
        _small_sweep(sizes=(4, 8), spec=loaded)


def test_crowd_argument_validation():
    with pytest.raises(ValueError):
        _small_sweep(sizes=())
    with pytest.raises(ValueError):
        _small_sweep(sizes=(0,))
    with pytest.raises(ValueError):
        build_crowd_scenario(wireless_loss=1.0)
    with pytest.raises(ValueError):
        build_crowd_scenario(n_edges=0)
