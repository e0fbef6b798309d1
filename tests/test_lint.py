"""The determinism & contract linter: rules R001-R005 and R007, engine, CLI.

Each rule is exercised against known-good and known-bad fixture files
under ``tests/lint_fixtures/`` (that directory is excluded from the
linter's own walk precisely so the bad fixtures can exist), suppression
comments are covered, the ``--json`` document schema is pinned, and a
meta-test asserts the repo itself lints clean.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    FileContext,
    LintError,
    MessageSchemaRule,
    NoFloatEqualityRule,
    NoSetIterationRule,
    NoWallClockRule,
    Project,
    RngProvenanceRule,
    TopicContractRule,
    run_lint,
)
from repro.analysis.contracts import TABLE_BEGIN, TABLE_END
from repro.obs.bus import TopicSpec, render_topic_table

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def fixture_ctx(name: str, rel_path: str) -> FileContext:
    """A fixture file parsed under a synthetic repo-relative path."""
    return FileContext(rel_path, (FIXTURES / name).read_text())


def run_file_rule(rule, name: str, rel_path: str):
    project = Project([fixture_ctx(name, rel_path)])
    return run_lint(rules=[rule], project=project).findings


class TestR001WallClock:
    def test_bad_fixture_fires(self):
        findings = run_file_rule(
            NoWallClockRule(), "r001_bad.py", "src/repro/media/fixture.py"
        )
        assert all(f.code == "R001" for f in findings)
        messages = "\n".join(f.message for f in findings)
        assert "time.time" in messages
        assert "datetime.now" in messages
        assert "time.localtime" in messages
        assert "time.strftime" in messages
        assert "random.random" in messages
        assert "np.random.rand" in messages
        assert "np.random.seed" in messages
        assert "default_rng()" in messages
        assert "shuffle" in messages
        # the two import statements of the random module are themselves flagged
        assert len(findings) >= 10

    def test_good_fixture_clean(self):
        assert run_file_rule(
            NoWallClockRule(), "r001_good.py", "src/repro/media/fixture.py"
        ) == []

    def test_out_of_scope_path_ignored(self):
        assert run_file_rule(
            NoWallClockRule(), "r001_bad.py", "tools/fixture.py"
        ) == []


class TestR002FloatEquality:
    def test_bad_fixture_fires(self):
        findings = run_file_rule(
            NoFloatEqualityRule(), "r002_bad.py", "src/repro/core/fixture.py"
        )
        # five functions; the chained comparison contributes one per operator
        assert len(findings) == 6
        assert {f.code for f in findings} == {"R002"}

    def test_good_fixture_clean(self):
        assert run_file_rule(
            NoFloatEqualityRule(), "r002_good.py", "src/repro/core/fixture.py"
        ) == []

    def test_metrics_scope_included(self):
        assert run_file_rule(
            NoFloatEqualityRule(), "r002_bad.py", "src/repro/metrics/fixture.py"
        )


class TestR003SetIteration:
    def test_bad_fixture_fires(self):
        findings = run_file_rule(
            NoSetIterationRule(), "r003_bad.py", "src/repro/control/fixture.py"
        )
        assert len(findings) == 4
        assert {f.code for f in findings} == {"R003"}

    def test_good_fixture_clean(self):
        assert run_file_rule(
            NoSetIterationRule(), "r003_good.py", "src/repro/control/fixture.py"
        ) == []


class TestR007RngProvenance:
    @pytest.mark.parametrize("name,expected", [
        ("r007_bad_loop_reseed.py", 1),
        ("r007_bad_global_rng.py", 2),
        ("r007_bad_constant_seed.py", 1),
    ])
    def test_bad_fixture_fires(self, name, expected):
        findings = run_file_rule(
            RngProvenanceRule(), name, "src/repro/control/fixture.py"
        )
        assert len(findings) == expected, [f.message for f in findings]
        assert {f.code for f in findings} == {"R007"}

    def test_global_singleton_flags_both_definition_and_draw(self):
        findings = run_file_rule(
            RngProvenanceRule(), "r007_bad_global_rng.py",
            "src/repro/control/fixture.py",
        )
        messages = "\n".join(f.message for f in findings)
        assert "module-level RNG singleton" in messages
        assert "module-global" in messages

    def test_good_fixture_clean(self):
        assert run_file_rule(
            RngProvenanceRule(), "r007_good_shard.py",
            "src/repro/federation/fixture.py",
        ) == []

    def test_out_of_scope_path_ignored(self):
        assert run_file_rule(
            RngProvenanceRule(), "r007_bad_constant_seed.py", "tools/fixture.py"
        ) == []

    def test_rng_home_may_constant_seed(self):
        assert run_file_rule(
            RngProvenanceRule(), "r007_bad_constant_seed.py",
            "src/repro/simnet/rng.py",
        ) == []


def topic_doc(specs) -> str:
    return (
        "## 10. Observability\n\n"
        f"{TABLE_BEGIN}\n{render_topic_table(specs)}\n{TABLE_END}\n"
    )


FIXTURE_SPECS = (
    TopicSpec("link.drop", "simnet/link.py", "`link`, `reason`"),
    TopicSpec("ctrl.tick.start", "control/agent.py", "`epoch`"),
    TopicSpec("guard.strike", "control/guard.py", "`reason`"),
    TopicSpec("fault.*", "run recorder", "dynamic kind suffix"),
    TopicSpec("ghost.topic", "nobody", "never emitted anywhere"),
)


def topic_project(emit_fixture: str, doc: str = None) -> Project:
    contexts = [
        fixture_ctx("r004_bus.py", "src/repro/obs/bus.py"),
        fixture_ctx(emit_fixture, "src/repro/simnet/emitters.py"),
    ]
    docs = {"DESIGN.md": topic_doc(FIXTURE_SPECS) if doc is None else doc}
    return Project(contexts, docs)


class TestR004TopicContract:
    def test_good_project_clean(self):
        findings = run_lint(rules=[TopicContractRule()],
                            project=topic_project("r004_emit_good.py")).findings
        assert findings == []

    def test_unknown_topics_flagged(self):
        findings = run_lint(rules=[TopicContractRule()],
                            project=topic_project("r004_emit_bad.py")).findings
        messages = "\n".join(f.message for f in findings)
        assert "`link.dorp`" in messages
        assert "`mystery.…`" in messages
        assert "`nonsense.sample`" in messages
        emit_findings = [f for f in findings
                        if f.path == "src/repro/simnet/emitters.py"
                        and "emitted topic" in f.message]
        assert len(emit_findings) == 3

    def test_dead_patterns_flagged(self):
        findings = run_lint(rules=[TopicContractRule()],
                            project=topic_project("r004_emit_bad.py")).findings
        dead = [f.message for f in findings if "dead pattern" in f.message]
        assert any("`recv.*`" in m for m in dead)
        assert any("`ctrl.tick.stop`" in m for m in dead)

    def test_dead_registry_entry_flagged(self):
        findings = run_lint(rules=[TopicContractRule()],
                            project=topic_project("r004_emit_bad.py")).findings
        assert any("`ghost.topic` is never emitted" in f.message for f in findings)

    def test_undocumented_topic_flagged(self):
        doc = topic_doc([s for s in FIXTURE_SPECS if s.name != "ghost.topic"])
        findings = run_lint(rules=[TopicContractRule()],
                            project=topic_project("r004_emit_good.py", doc=doc)).findings
        assert any("`ghost.topic` is undocumented" in f.message for f in findings)
        assert any("stale" in f.message for f in findings)

    def test_missing_markers_flagged(self):
        findings = run_lint(
            rules=[TopicContractRule()],
            project=topic_project("r004_emit_good.py", doc="no markers here"),
        ).findings
        assert any("markers missing" in f.message for f in findings)


def schema_project(messages_fixture: str, guard_fixture: str) -> Project:
    return Project([
        fixture_ctx(messages_fixture, "src/repro/control/messages.py"),
        fixture_ctx(guard_fixture, "src/repro/control/guard.py"),
    ])


class TestR005MessageSchema:
    def test_good_project_clean(self):
        findings = run_lint(
            rules=[MessageSchemaRule()],
            project=schema_project("r005_messages_good.py", "r005_guard_good.py"),
        ).findings
        assert findings == []

    def test_defects_flagged(self):
        findings = run_lint(
            rules=[MessageSchemaRule()],
            project=schema_project("r005_messages.py", "r005_guard_bad.py"),
        ).findings
        messages = "\n".join(f.message for f in findings)
        assert "`Report.priority` has no guard rule" in messages
        assert "`Report.qos`" in messages and "no such field" in messages
        assert "never read as `msg.t1`" in messages
        assert "`Rumour`" in messages
        assert "`Register.node` is both guarded and exempt" in messages
        assert {f.code for f in findings} == {"R005"}

    def test_unguarded_field_anchors_to_messages_file(self):
        findings = run_lint(
            rules=[MessageSchemaRule()],
            project=schema_project("r005_messages.py", "r005_guard_good.py"),
        ).findings
        (finding,) = [f for f in findings if "priority" in f.message]
        assert finding.path == "src/repro/control/messages.py"
        assert finding.line > 0


class TestSuppression:
    def test_noqa_is_per_line_and_per_code(self):
        findings = run_file_rule(
            NoWallClockRule(), "suppression.py", "src/repro/obs/fixture.py"
        )
        lines = sorted(f.line for f in findings)
        src = (FIXTURES / "suppression.py").read_text().splitlines()
        flagged = [src[ln - 1] for ln in lines]
        assert len(findings) == 2
        assert any("R999" in text for text in flagged)
        assert any("unsuppressed" not in text and "noqa" not in text
                   for text in flagged)


class TestEngineAndCli:
    def test_repo_lints_clean_meta(self):
        result = run_lint(root=str(REPO_ROOT))
        assert result.findings == []
        assert result.files_scanned > 100
        assert result.rules == (
            "R001", "R002", "R003", "R004", "R005", "R007", "R008",
        )

    def test_repo_lint_reports_per_rule_timings(self):
        result = run_lint(root=str(REPO_ROOT))
        assert set(result.timings_ms) == set(result.rules)
        assert all(t >= 0.0 for t in result.timings_ms.values())
        # the budget: whole-repo lint stays well under ~5 s
        assert sum(result.timings_ms.values()) < 5000.0

    def test_fixture_dir_is_excluded_from_walk(self):
        result = run_lint(root=str(REPO_ROOT))
        # would be impossible if the known-bad fixtures were scanned
        assert result.clean

    def test_cli_exit_zero_and_human_output(self, capsys):
        from repro.cli import main

        assert main(["lint", "--root", str(REPO_ROOT)]) == 0
        err = capsys.readouterr().err
        assert "files scanned" in err and "clean" in err

    def test_cli_exit_one_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "bad.py").write_text("def f(x):\n    return x == 0.5\n")
        from repro.cli import main

        assert main(["lint", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R002" in out and "bad.py:2" in out

    def test_cli_exit_two_on_internal_error(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "broken.py").write_text("def broken(:\n")
        from repro.cli import main

        assert main(["lint", "--root", str(tmp_path)]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_cli_json_schema(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "bad.py").write_text("def f(x):\n    return x == 0.5\n")
        from repro.cli import main

        assert main(["lint", "--root", str(tmp_path), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 2
        assert doc["clean"] is False
        assert doc["files_scanned"] == 1
        assert doc["counts"] == {"R002": 1}
        assert set(doc["timings_ms"]) == set(doc["rules"])
        (finding,) = doc["findings"]
        assert finding == {
            "path": "src/repro/core/bad.py",
            "line": 2,
            "code": "R002",
            "message": finding["message"],
            "severity": "error",
        }
        assert "float equality" in finding["message"]

    def test_missing_root_is_internal_error(self):
        with pytest.raises(LintError):
            run_lint(root="/nonexistent/path/xyz")

    def test_findings_sorted(self, tmp_path):
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        (core / "a.py").write_text("x = 1.0 == 2.0\ny = 3.0 != 4.0\n")
        (core / "b.py").write_text("z = 5.0 == 6.0\n")
        result = run_lint(root=str(tmp_path))
        assert [(f.path, f.line) for f in result.findings] == [
            ("src/repro/core/a.py", 1),
            ("src/repro/core/a.py", 2),
            ("src/repro/core/b.py", 1),
        ]
