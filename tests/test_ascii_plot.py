"""Unit tests for the terminal plot helpers."""

import pytest

from repro.metrics.ascii_plot import render_level_timeline
from repro.simnet.tracing import StepTrace


class TestLevelTimeline:
    def test_constant_trace(self):
        tr = StepTrace(0.0, 4)
        assert render_level_timeline(tr, 0.0, 10.0, width=10) == "4444444444"

    def test_step_change(self):
        tr = StepTrace(0.0, 1)
        tr.record(5.0, 4)
        assert render_level_timeline(tr, 0.0, 10.0, width=10) == "1111144444"

    def test_label_prefix(self):
        tr = StepTrace(0.0, 2)
        out = render_level_timeline(tr, 0.0, 4.0, width=4, label="rx0 ")
        assert out == "rx0 2222"

    def test_levels_above_nine_rendered_as_hash(self):
        tr = StepTrace(0.0, 12)
        assert render_level_timeline(tr, 0.0, 2.0, width=2) == "##"

    def test_validation(self):
        tr = StepTrace(0.0, 1)
        with pytest.raises(ValueError):
            render_level_timeline(tr, 5.0, 5.0)
        with pytest.raises(ValueError):
            render_level_timeline(tr, 0.0, 5.0, width=0)

    def test_empty_trace_renders_initial_value(self):
        # A trace with no recorded changes holds its initial value forever.
        tr = StepTrace(0.0, 0)
        assert render_level_timeline(tr, 0.0, 5.0, width=5) == "00000"

    def test_single_change_trace(self):
        tr = StepTrace(0.0, 0)
        tr.record(9.0, 7)
        out = render_level_timeline(tr, 0.0, 10.0, width=10)
        assert out == "0000000007"


def test_cli_fig9_plot(capsys):
    from repro.cli import main

    assert main(["fig9", "--duration", "40", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "subscription level per session" in out
    # Timeline rows contain digit runs.
    assert any(c.isdigit() for c in out.splitlines()[-1])
