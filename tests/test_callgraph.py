"""Interprocedural analysis: call graph, effects, R006/R007 fixtures.

The fixture matrix pins the exact finding count for every known-bad and
known-good fixture under ``tests/lint_fixtures/`` — one finding per
seeded defect, zero for the clean shard — and the unit tests cover the
call-graph mechanics the rules depend on: entry-point resolution,
reachability through helper frames, blame-path rendering, and the
closure-capture scoping that keeps nested callbacks from being
misread as module-global writers.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    FileContext,
    Project,
    RngProvenanceRule,
    ShardIsolationRule,
    build_callgraph,
    get_callgraph,
    load_project,
    run_lint,
)
from repro.analysis.effects import bound_names, extract_effects
from repro.analysis.flow import ENTRY_POINTS

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def fixture_project(*names: str) -> Project:
    return Project([
        FileContext(
            f"src/repro/_fixture/{name[:-3]}.py",
            (FIXTURES / name).read_text(),
        )
        for name in names
    ])


def rule_findings(rule, *names: str):
    return run_lint(rules=[rule], project=fixture_project(*names)).findings


R006_MATRIX = [
    ("r006_bad_shared_write.py", 1),
    ("r006_bad_injected_write.py", 1),
    ("r006_good_shared_ok.py", 0),
    ("r006_bad_unused_shared_ok.py", 1),
    ("r006_r007_good_shard.py", 0),
]

R007_MATRIX = [
    ("r007_bad_rng_on_shared.py", 1),
    ("r007_bad_loop_reseed.py", 1),
    ("r007_bad_global_rng.py", 2),
    ("r007_bad_constant_seed.py", 1),
    ("r006_r007_good_shard.py", 0),
]


class TestR006Fixtures:
    @pytest.mark.parametrize("name,expected", R006_MATRIX)
    def test_expected_finding_count(self, name, expected):
        findings = rule_findings(ShardIsolationRule(), name)
        assert len(findings) == expected, [f.message for f in findings]
        assert all(f.code == "R006" for f in findings)

    def test_blame_path_names_the_entry_and_the_chain(self):
        (finding,) = rule_findings(
            ShardIsolationRule(), "r006_bad_shared_write.py"
        )
        # the write sits two helper frames below run_to; the finding must
        # show the whole chain, not just the leaf
        assert "DomainShard.run_to" in finding.message
        assert "_collect" in finding.message
        assert "_record" in finding.message
        assert "shared-ok[R006]" in finding.message  # remediation hint

    def test_injected_class_attribute_write_is_caught(self):
        (finding,) = rule_findings(
            ShardIsolationRule(), "r006_bad_injected_write.py"
        )
        assert "coordinator" in finding.message

    def test_unused_marker_is_its_own_finding(self):
        (finding,) = rule_findings(
            ShardIsolationRule(), "r006_bad_unused_shared_ok.py"
        )
        assert "unused" in finding.message
        assert "shared-ok[R006]" in finding.message


class TestR007Fixtures:
    @pytest.mark.parametrize("name,expected", R007_MATRIX)
    def test_expected_finding_count(self, name, expected):
        findings = rule_findings(RngProvenanceRule(), name)
        assert len(findings) == expected, [f.message for f in findings]
        assert all(f.code == "R007" for f in findings)

    def test_global_singleton_flags_both_definition_and_draw(self):
        findings = rule_findings(
            RngProvenanceRule(), "r007_bad_global_rng.py"
        )
        messages = "\n".join(f.message for f in findings)
        assert "module-level RNG singleton" in messages
        assert "module-global" in messages

    def test_rng_on_shared_coordinator_flagged(self):
        (finding,) = rule_findings(
            RngProvenanceRule(), "r007_bad_rng_on_shared.py"
        )
        assert "FederationCoordinator" in finding.message


CLOSURE_SRC = '''\
REGISTRY = []


class DomainShard:
    def run_to(self, target):
        chain = {}

        def _tick():
            # mutates the *enclosing* local, not a module global
            chain["n"] = chain.get("n", 0) + 1

        def _leak():
            REGISTRY.append(target)

        _tick()
        _leak()
'''


class TestCallGraphMechanics:
    def test_closure_capture_is_not_a_module_write(self):
        project = Project(
            [FileContext("src/repro/_fixture/closure.py", CLOSURE_SRC)]
        )
        findings = run_lint(
            rules=[ShardIsolationRule()], project=project
        ).findings
        # _tick's write to the captured dict is shard-local; only _leak's
        # append to the module-level REGISTRY is a violation
        assert len(findings) == 1
        assert "REGISTRY" in findings[0].message
        assert "_leak" in findings[0].message

    def test_bound_names_sees_store_context_only(self):
        import ast

        fn = ast.parse(
            "def f(a):\n"
            "    b = Other\n"
            "    Other.attr = 1\n"
        ).body[0]
        names = bound_names(fn, params=("a",))
        assert "a" in names and "b" in names
        assert "Other" not in names  # Load-context receiver stays global

    def test_outer_locals_silence_nested_writes(self):
        import ast

        outer = ast.parse(
            "def every(self):\n"
            "    chain = {}\n"
            "    def _tick():\n"
            "        chain['k'] = 1\n"
        ).body[0]
        nested = outer.body[1]
        eff = extract_effects(nested, params=(), outer_locals=("chain",))
        assert eff.name_writes == []

    def test_repo_graph_reaches_through_the_federation_stack(self):
        cg = get_callgraph(load_project(root=str(REPO_ROOT)))
        entries = cg.entry_points(ENTRY_POINTS)
        assert entries, "DomainShard entry points must resolve"
        reachable, parents = cg.reachable(entries)
        assert len(reachable) > 100
        mods = {cg.functions[fid].module for fid in reachable}
        # scheduler callbacks registered at shard construction pull the
        # whole per-shard algorithm stack into the shard-reachable set
        assert any(m.startswith("repro.core.") for m in mods)
        assert any(m.startswith("repro.simnet.") for m in mods)

    def test_callgraph_memoised_on_project_cache(self):
        project = load_project(root=str(REPO_ROOT))
        assert get_callgraph(project) is get_callgraph(project)

    def test_build_callgraph_only_scans_package_sources(self):
        project = Project([
            FileContext("tools/fixture.py", "GLOBAL = []\n"),
            FileContext("src/repro/_fixture/a.py", "X = 1\n"),
        ])
        cg = build_callgraph(project)
        assert all(
            mod.rel_path.startswith("src/repro/")
            for mod in cg.modules.values()
        )
