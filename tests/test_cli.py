"""Smoke tests for the CLI and the per-figure experiment drivers."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import figures


class TestFigureDrivers:
    def test_fig6_rows(self):
        rows = figures.fig6_stability_topology_a(
            receiver_counts=(2,), traffic_models=(("cbr", 0.0),), duration=40.0
        )
        assert len(rows) == 1
        assert rows[0]["figure"] == "6"
        assert rows[0]["traffic"] == "CBR"
        assert rows[0]["max_changes"] >= 0
        assert rows[0]["mean_gap_s"] > 0

    def test_fig7_rows(self):
        rows = figures.fig7_stability_topology_b(
            session_counts=(2,), traffic_models=(("vbr", 3.0),), duration=40.0
        )
        assert len(rows) == 1
        assert rows[0]["traffic"] == "VBR(P=3)"

    def test_fig8_rows(self):
        rows = figures.fig8_fairness(
            session_counts=(2,), traffic_models=(("cbr", 0.0),), duration=60.0
        )
        assert len(rows) == 1
        assert 0 <= rows[0]["deviation_first_half"]
        assert 0 <= rows[0]["deviation_second_half"]

    def test_fig9_structure(self):
        data = figures.fig9_timeseries(n_sessions=2, duration=60.0)
        assert data["n_sessions"] == 2
        assert len(data["sessions"]) == 2
        for s in data["sessions"].values():
            assert "subscription" in s and "loss" in s
            assert s["mean_level"] > 0

    def test_fig10_rows(self):
        rows = figures.fig10_staleness(
            staleness_values=(0.0, 4.0), receiver_counts=(2,), duration=60.0
        )
        assert len(rows) == 2
        assert {r["staleness_s"] for r in rows} == {0.0, 4.0}

    def test_table1_complete(self):
        rows = figures.table1_rows()
        assert len(rows) == 48

    def test_default_duration_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_DURATION", raising=False)
        assert figures.default_duration(123.0) == 123.0
        monkeypatch.setenv("REPRO_DURATION", "77")
        assert figures.default_duration() == 77.0
        monkeypatch.setenv("REPRO_FULL", "1")
        assert figures.default_duration() == 1200.0


class TestCli:
    def test_table1_plain(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "add_layer" in out
        assert "reduce_half_old" in out

    def test_table1_json(self, capsys):
        assert main(["table1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 48

    def test_demo_topology_a(self, capsys):
        assert main(["demo", "--topology", "a", "--receivers", "2",
                     "--duration", "30", "--no-artifacts"]) == 0
        out = capsys.readouterr().out
        assert "mean relative deviation" in out

    def test_demo_topology_b(self, capsys):
        assert main(["demo", "--topology", "b", "--receivers", "2",
                     "--duration", "30", "--no-artifacts"]) == 0
        assert "session" in capsys.readouterr().out

    def test_demo_writes_run_artifacts(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["demo", "--topology", "a", "--receivers", "2",
                     "--duration", "20"]) == 0
        assert "run artifacts" in capsys.readouterr().err
        (run_dir,) = tmp_path.iterdir()
        assert run_dir.name.startswith("demo-s1-")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["experiment"] == "demo"
        assert manifest["args"]["topology"] == "a"
        assert (run_dir / "events.jsonl").exists()
        assert (run_dir / "metrics.json").exists()

    def test_no_artifacts_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["demo", "--topology", "a", "--receivers", "2",
                     "--duration", "20", "--no-artifacts"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    def test_bench_quick(self, capsys, tmp_path, monkeypatch):
        from repro.obs import bench as bench_mod

        # Shrink horizons so the CLI smoke stays fast; scenario set unchanged.
        short = tuple((n, b, f, 6.0) for (n, b, f, _q) in bench_mod.BENCH_SUITE)
        monkeypatch.setattr(bench_mod, "BENCH_SUITE", short)
        assert main(["bench", "--quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        (bench_file,) = tmp_path.glob("BENCH_*.json")
        result = json.loads(bench_file.read_text())
        assert result["quick"] is True
        assert result["totals"]["events"] > 0

    def test_bench_baseline_gate_failure_exits_nonzero(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.obs import bench as bench_mod

        short = tuple((n, b, f, 6.0) for (n, b, f, _q) in bench_mod.BENCH_SUITE)
        monkeypatch.setattr(bench_mod, "BENCH_SUITE", short)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"totals": {"events_per_sec": 1e12}}))
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--out", str(tmp_path),
                  "--baseline", str(baseline)])
        assert "FAIL" in capsys.readouterr().out

    def test_federate_json(self, capsys):
        assert main(["federate", "--receivers", "16", "--domains", "2,4",
                     "--duration", "20", "--no-artifacts", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["ok"] is True
        assert [p["n_domains"] for p in result["points"]] == [2, 4]
        assert result["gates"]["no_per_receiver_reports"] is True

    def test_federate_writes_artifacts_with_events(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["federate", "--receivers", "8", "--domains", "2",
                     "--duration", "20"]) == 0
        capsys.readouterr()
        (run_dir,) = tmp_path.iterdir()
        assert run_dir.name.startswith("federate-s1-")
        events = (run_dir / "events.jsonl").read_text()
        assert '"federation.round"' in events
        assert '"federation.summary"' in events
        assert '"federation.suggestion"' in events

    def test_fig9_summary_output(self, capsys):
        assert main(["fig9", "--duration", "40"]) == 0
        out = capsys.readouterr().out
        assert "mean level" in out

    def test_fig10_json(self, capsys):
        assert main(["fig10", "--duration", "30", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all("staleness_s" in r for r in rows)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])


class TestLintExitCodes:
    """``repro lint`` exit codes are CLI-conventional: 0 / 1 / 2."""

    REPO_ROOT = Path(__file__).resolve().parent.parent

    def test_clean_repo_exits_zero(self, capsys):
        assert main(["lint", "--root", str(self.REPO_ROOT)]) == 0
        assert "clean" in capsys.readouterr().err

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "simnet"
        target.mkdir(parents=True)
        (target / "clock.py").write_text(
            "import time\n\ndef now():\n    return time.time()\n"
        )
        assert main(["lint", "--root", str(tmp_path)]) == 1
        assert "R001" in capsys.readouterr().out

    def test_internal_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "oops.py").write_text("this is not python (\n")
        assert main(["lint", "--root", str(tmp_path)]) == 2
        assert "lint:" in capsys.readouterr().err
