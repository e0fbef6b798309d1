"""Per-defect cases of the source rules in ``tests/test_source_rules.py``.

``test_source_rules.py`` runs each check over ``src/repro/`` and over one
inline snippet that holds all of its defects.  The cases here take one
defect at a time, so a check that stops seeing one of them fails by name.
The class names keep the rule codes of the analyzer these checks replaced
(DESIGN.md §11): R002 is ``float_equality``, R004 ``topic_contract`` and
R007 ``constant_seeds``.
"""

from test_source_rules import (
    CHECKS,
    EXEMPT,
    constant_seeds,
    float_equality,
    parse,
    sources,
    topic_contract,
    unexcused,
)

from repro.obs.bus import TOPIC_REGISTRY, render_topic_table

FLOAT_BAD = "stop = loss == 0.0\nok = share != float(n)\nok = 1 < x == -1.5\n"


def design_with(table):
    return ("## 10. Observability\n\n"
            f"<!-- topic-table:begin -->\n{table}\n<!-- topic-table:end -->\n")


def snippet_hits(hits, path="simnet/a.py"):
    return [h for h in hits if h.startswith(f"{path}:")]


class TestR002FloatEquality:
    def test_bad_fixture_fires(self):
        hits = float_equality(parse({"core/a.py": FLOAT_BAD}))
        assert [h.split(" ", 1)[0] for h in hits] == ["core/a.py:1", "core/a.py:2", "core/a.py:3"]

    def test_metrics_scope_included(self):
        assert len(float_equality(parse({"metrics/a.py": FLOAT_BAD}))) == 3


class TestR004TopicContract:
    def test_unknown_topics_flagged(self):
        hits = topic_contract(parse({"simnet/a.py": (
            "bus.emit('link.dorp', now)\nrec.log_event(now, f'mystery.{k}', {})\n"
            "bus.emit('nonsense.sample', now)\nbus.emit('link.drop', now)\n")}))
        assert snippet_hits(hits) == [
            "simnet/a.py:1 topic `link.dorp` is not in TOPIC_REGISTRY (obs/bus.py)",
            "simnet/a.py:2 topic `mystery.` is not in TOPIC_REGISTRY (obs/bus.py)",
            "simnet/a.py:3 topic `nonsense.sample` is not in TOPIC_REGISTRY (obs/bus.py)"]

    def test_dead_patterns_flagged(self):
        hits = snippet_hits(topic_contract(parse({"simnet/a.py": (
            "bus.subscribe('*', fn)\nbus.subscribe('link.*', fn)\n"
            "bus.subscribe('recv.leaves', fn)\nbus.subscribe('nothing.*', fn)\n")})))
        assert [h.split(" ", 3)[:3] for h in hits] == [
            ["simnet/a.py:3", "topic", "`recv.leaves`"], ["simnet/a.py:4", "topic", "`nothing.`"]]

    def test_dead_registry_entry_flagged(self):
        ghost = TOPIC_REGISTRY[-1].name
        emits = "".join(f"bus.emit('{s.name.replace('*', 'x')}', now)\n"
                        for s in TOPIC_REGISTRY if s.name != ghost)
        hits = topic_contract(parse({"simnet/a.py": emits}))
        assert snippet_hits(hits) == []
        assert [h.split(" ", 1)[1] for h in hits if "never emitted" in h] == [
            f"registry topic `{ghost}` is never emitted"]

    def test_undocumented_topic_flagged(self):
        assert snippet_hits(topic_contract({}, design=design_with(render_topic_table())),
                            "DESIGN.md") == []
        *rows, dropped = render_topic_table().splitlines()
        hits = snippet_hits(topic_contract({}, design=design_with("\n".join(rows))), "DESIGN.md")
        assert len(hits) == 1 and hits[0].startswith("DESIGN.md:3 the §10 topic table differs")
        assert hits[0].endswith("\n" + dropped)

    def test_missing_markers_flagged(self):
        hits = snippet_hits(topic_contract({}, design="no markers here"), "DESIGN.md")
        assert len(hits) == 1 and hits[0].startswith("DESIGN.md:1 the §10 topic table differs")


class TestR007RngProvenance:
    def test_good_fixture_clean(self):
        assert constant_seeds(parse({"federation/a.py": (
            "rng = Pcg64(stream_seed(seed, 'shard/0'))\nr = np.random.default_rng(seed)\n"
            "r = default_rng(seed=cfg.seed + 1)\nr = np.random.default_rng()\n"
            "r = np.random.default_rng(int.from_bytes(digest, 'little'))\n"
            "r = random.Random(seed)\nr = np.random.RandomState(None)\n"
            "r = Pcg64(seed)\nr = Pcg64([seed + 1, next(queues)])\n")})) == []


class TestSuppression:
    def test_noqa_is_per_line_and_per_code(self):
        bad = "r = np.random.default_rng(0)\nstop = loss == 0.0\n"
        trees = parse({"core/a.py": bad, "core/b.py": bad})
        exempt = {constant_seeds: {"core/a.py"}}

        def left(check):
            return [h.split(" ", 1)[0] for h in unexcused(check(trees), exempt.get(check, set()))]

        # An exemption excuses its own path and nothing else ...
        assert left(constant_seeds) == ["core/b.py:1"]
        # ... and only for the check it is listed under.
        assert left(float_equality) == ["core/a.py:2", "core/b.py:2"]


class TestEngineAndCli:
    def test_repo_lints_clean_meta(self):
        assert [c.__name__ for c in CHECKS] == [
            "constant_seeds", "float_equality", "topic_contract", "guard_coverage",
            "annotation_names", "unused_options", "function_level_imports",
            "write_only_state", "plan_application", "numpy_random"]
        read = {"obs/bus.py", "control/guard.py", "simnet/rng.py", "core/state.py"}
        assert read <= set(sources())
        assert {c.__name__: unexcused(c(sources()), EXEMPT.get(c, set())) for c in CHECKS} == {
            c.__name__: [] for c in CHECKS}
