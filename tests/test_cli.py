"""Smoke tests for the CLI and the per-figure experiment drivers."""

import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, FIGURES, main
from repro.experiments import crowd, figures


class TestFigureDrivers:
    def test_fig6_rows(self, monkeypatch):
        monkeypatch.setattr(figures, "FIG6_RECEIVER_COUNTS", (2,))
        monkeypatch.setattr(figures, "TRAFFIC_MODELS", (("cbr", 0.0),))
        rows = figures.fig6_stability_topology_a(duration=40.0)
        assert len(rows) == 1
        assert rows[0]["figure"] == "6"
        assert rows[0]["traffic"] == "CBR"
        assert rows[0]["max_changes"] >= 0
        assert rows[0]["mean_gap_s"] > 0

    def test_fig7_rows(self, monkeypatch):
        monkeypatch.setattr(figures, "FIG7_SESSION_COUNTS", (2,))
        monkeypatch.setattr(figures, "TRAFFIC_MODELS", (("vbr", 3.0),))
        rows = figures.fig7_stability_topology_b(duration=40.0)
        assert len(rows) == 1
        assert rows[0]["traffic"] == "VBR(P=3)"

    def test_fig8_rows(self, monkeypatch):
        monkeypatch.setattr(figures, "FIG8_SESSION_COUNTS", (2,))
        monkeypatch.setattr(figures, "TRAFFIC_MODELS", (("cbr", 0.0),))
        rows = figures.fig8_fairness(duration=60.0)
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

    def test_fig10_rows(self, monkeypatch):
        monkeypatch.setattr(figures, "FIG10_STALENESS", (0.0, 4.0))
        monkeypatch.setattr(figures, "FIG10_RECEIVER_COUNTS", (2,))
        rows = figures.fig10_staleness(duration=60.0)
        assert len(rows) == 2
        assert {r["staleness_s"] for r in rows} == {0.0, 4.0}

    def test_table1_complete(self):
        rows = figures.table1_rows()
        assert len(rows) == 48


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
        assert "mean_level" in out and "over_subscribed" in out
        assert "subscription" not in out  # the series are for --json / --plot

    def test_fig10_json(self, capsys):
        assert main(["fig10", "--duration", "30", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all("staleness_s" in r for r in rows)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])


RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: The rows whose gate a 1 s horizon fails.  The others assert orderings
#: ("no more drops than", "no worse than") that hold trivially while
#: nothing has happened yet.
FAILS_AT_ONE_SECOND = {
    "fig6", "fig7", "fig8", "fig9", "ablation_baselines", "ablation_granularity",
    "ablation_interval", "ablation_leave_latency", "control_traffic",
    "hierarchy_domains", "hierarchy_tiered",
}


@pytest.mark.parametrize("row", FIGURES, ids=lambda row: row.name)
class TestFigureTable:
    """Every :data:`repro.cli.FIGURES` row through the one driver."""

    def test_committed_result_passes_its_gate(self, row):
        doc = json.loads((RESULTS / f"{row.name}.json").read_text())
        assert row.gate(doc, row.duration) == []

    def test_too_short_horizon_reports_and_never_raises(self, row, capsys):
        rc = main([row.name, "--duration", "1", "--json"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        json.loads(out)  # the document is printed whatever the gate says
        lines = err.splitlines()
        assert all(line.startswith(f"repro {row.name}: gate failed: ") for line in lines)
        assert rc == (1 if row.name in FAILS_AT_ONE_SECOND else 0) == (1 if lines else 0)


def test_out_writes_what_json_prints(capsys, tmp_path):
    out = tmp_path / "red.json"
    assert main(["ablation_red", "--duration", "30", "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert table.startswith("queue") and "RED" in table
    assert main(["ablation_red", "--duration", "30", "--json"]) == 0
    assert out.read_text() == capsys.readouterr().out
    _assert_usage_error(["table1", "--out", str(tmp_path / "no-dir" / "t.json")],
                        capsys, "cannot write --out")


def test_default_arguments_reproduce_the_committed_file(capsys):
    assert main(["hierarchy_domains", "--json"]) == 0
    assert capsys.readouterr().out == (RESULTS / "hierarchy_domains.json").read_text()


def _assert_usage_error(argv, capsys, message):
    """Exit 2, no traceback, and a last stderr line carrying ``message``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err.strip().splitlines()[-1]


#: Per experiment: a sub-second passing invocation, one flag set that makes
#: ``run_*`` raise ValueError, and one that fails a gate.
SMALL = {
    "chaos": (
        ["--duration", "60", "--receivers", "2"],
        ["--receivers", "0"],
        ["--recover-intervals", "0.5"],
    ),
    "byzantine": (
        ["--duration", "60"],
        ["--attack-start", "500"],
        ["--quarantine-intervals", "0.5"],
    ),
    "churn": (
        ["--duration", "60", "--receivers", "4"],
        ["--receivers", "0"],
        ["--recover-intervals", "0.01"],
    ),
    "crowd": (
        ["--seed", "2", "--duration", "40", "--sizes", "12", "--loss", "0,0.25",
         "--edges", "3", "--incumbents", "2", "--federated-crowd", "6"],
        ["--edges", "0"],
        ["--control-bound", "0.01"],
    ),
    "federate": (
        ["--receivers", "16", "--domains", "2,4", "--duration", "20"],
        ["--receivers", "10", "--domains", "3"],
        ["--tolerance", "0.001"],
    ),
    "fedchaos": (
        ["--receivers", "4", "--loss", "0.2", "--windows", "3"],
        ["--partition-domain", "d9"],
        ["--duration", "24"],
    ),
}


def small_json_argv(row):
    return [row.name, *SMALL[row.name][0], "--no-artifacts", "--json", "--strip-timings"]


_FIRST_RUNS = {}


def first_small_json_run(row, capsys):
    """``(exit code, stdout)`` of the first :func:`small_json_argv` run of
    ``row``; tests/test_goldens.py pins the same output without a run of
    its own."""
    if row.name not in _FIRST_RUNS:
        _FIRST_RUNS[row.name] = TestExperimentTable._json_run(row, capsys)
    return _FIRST_RUNS[row.name]


@pytest.mark.parametrize("row", EXPERIMENTS, ids=lambda row: row.name)
class TestExperimentTable:
    """Every :data:`repro.cli.EXPERIMENTS` row through the one driver."""

    @staticmethod
    def _json_run(row, capsys, *extra):
        rc = main([*small_json_argv(row), *extra])
        return rc, capsys.readouterr().out

    def test_stripped_json_is_byte_equal_across_runs(self, row, capsys):
        rc, one = first_small_json_run(row, capsys)
        assert rc == 0
        assert (rc, one) == self._json_run(row, capsys)
        assert not any(f'"{key}"' in one for key in row.timing_keys)

    def test_unusable_input_exits_two(self, row, capsys, tmp_path):
        _assert_usage_error([row.name, "--no-artifacts", *SMALL[row.name][1]],
                            capsys, f"repro {row.name}: error: ")
        _assert_usage_error([row.name, "--duration", "0"], capsys,
                            "argument --duration: must be positive")
        if row.replay is not None:
            _assert_usage_error(
                [row.name, f"--{row.replay.kind}", str(tmp_path / "missing.json")],
                capsys, f"cannot load --{row.replay.kind}",
            )

    def test_gate_failure_exits_one(self, row, capsys):
        small, _bad, failing = SMALL[row.name]
        assert main([row.name, *small, "--no-artifacts", *failing]) == 1
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name, duration", [("chaos", "10"), ("churn", "30")])
def test_horizon_before_the_first_clear_exits_one(name, duration, capsys):
    """No fault clears in time to be scored: the recovery gate must not
    pass vacuously (chaos clears first at 22 s, churn's links at 45 s)."""
    assert main([name, "--duration", duration, "--no-artifacts", "--json"]) == 1
    result = json.loads(capsys.readouterr().out)
    assert result["ok"] is False


@pytest.mark.parametrize(
    "row", [r for r in EXPERIMENTS if r.replay], ids=lambda row: row.name
)
def test_saved_input_replays_byte_equal(row, capsys, tmp_path):
    saved = tmp_path / "input.json"
    kind = row.replay.kind
    run = TestExperimentTable._json_run
    assert run(row, capsys, f"--save-{kind}", str(saved)) \
        == run(row, capsys, f"--{kind}", str(saved))
    assert json.loads(saved.read_text())


def test_crowd_spec_with_several_sizes_is_a_usage_error(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    small = SMALL["crowd"][0]
    assert main(["crowd", *small, "--no-artifacts", "--save-spec", str(spec)]) == 0
    capsys.readouterr()
    _assert_usage_error(
        ["crowd", "--no-artifacts", "--sizes", "8,16", "--spec", str(spec)],
        capsys, "an explicit spec drives exactly one size",
    )


def _crowd_spec(edit):
    spec = crowd.crowd_spec_for(4, seed=2, duration=10.0, n_edges=2).to_dict()
    edit(spec)
    return spec


_LINK = {"time": 5.0, "kind": "link_down", "args": ["core", "agg_a"]}

#: Replay input that parses but names nothing: ``(experiment, input kind,
#: document, what the one-line error says)``.
NAMES_NOTHING = {
    "plan-is-an-object": ("chaos", "plan", _LINK, "a fault plan is a list of events"),
    "plan-ghost-receiver": (
        "chaos", "plan", [{"time": 5.0, "kind": "receiver_leave", "args": ["ghost"]}],
        "receiver_leave: unknown receiver 'ghost'"),
    "plan-list-receiver": (
        "chaos", "plan", [{"time": 5.0, "kind": "receiver_leave", "args": [["x"]]}],
        "receiver_leave: unknown receiver ['x']"),
    "plan-ghost-link": (
        "chaos", "plan", [{**_LINK, "args": ["core", "nowhere"]}],
        "link_down: no link 'core' -> 'nowhere'"),
    "plan-one-endpoint": (
        "chaos", "plan", [{**_LINK, "args": ["core"]}],
        "missing a required argument: 'b'"),
    "plan-ghost-controller": (
        "chaos", "plan",
        [{"time": 5.0, "kind": "discovery_blackout", "kwargs": {"name": "nosuch"}}],
        "discovery_blackout: unknown controller 'nosuch'"),
    "plan-list-controller": (
        "chaos", "plan", [{"time": 5.0, "kind": "controller_kill", "kwargs": {"name": ["x"]}}],
        "controller_kill: unknown controller ['x']"),
    "churn-plan-ghost-controller": (
        "churn", "plan", [{"time": 5.0, "kind": "controller_kill", "kwargs": {"name": "nosuch"}}],
        "controller_kill: unknown controller 'nosuch'"),
    "churn-plan-failover-without-standby": (
        "churn", "plan", [{"time": 5.0, "kind": "controller_failover"}],
        "controller_failover: controller 'default' has no standby node"),
    "spec-ghost-event": (
        "crowd", "spec",
        _crowd_spec(lambda d: d["events"].append(
            {"time": 5.0, "kind": "join", "receiver_id": "ghost"})),
        "unknown receiver 'ghost'"),
    "spec-ghost-node": (
        "crowd", "spec", _crowd_spec(lambda d: d["population"][0].update(node="nowhere")),
        "unknown node 'nowhere'"),
}


@pytest.mark.parametrize("name, kind, doc, message", list(NAMES_NOTHING.values()),
                         ids=list(NAMES_NOTHING))
def test_replay_input_that_names_nothing_exits_two(name, kind, doc, message, capsys,
                                                   tmp_path):
    """Caught before the run, not as a KeyError or TypeError when the event
    fires: exit 2 with one line (exit 1 would say a gate failed)."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    args = ["--sizes", "4", "--edges", "2", "--loss", "0", "--duration", "10",
            "--federated-crowd", "0"] if name == "crowd" else []
    _assert_usage_error([name, "--no-artifacts", *args, f"--{kind}", str(path)],
                        capsys, message)


def test_fedchaos_save_plan_needs_a_single_point(capsys, tmp_path):
    _assert_usage_error(
        ["fedchaos", "--receivers", "4", "--no-artifacts",
         "--save-plan", str(tmp_path / "plan.json")],
        capsys, "--save-plan needs exactly one --loss and one --windows value",
    )
    assert not (tmp_path / "plan.json").exists()
