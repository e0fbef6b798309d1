"""Smoke test of the benchmark harness itself.

Not part of tier-1 (``testpaths`` is ``tests/``); run it explicitly::

    python3 -m pytest bench/test_bench_smoke.py -q

It uses ``--smoke`` populations and horizons, so all four workloads, traced
and untraced, finish in a few seconds.
"""

import json
import shutil
import subprocess
import sys

import pytest

import common
import compare
import tracing

common.use_checkout_src()
import worker  # noqa: E402  (needs src/ on the path)

SPEC = common.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=common.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=str(cwd),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_contract_output_names_match_benchmark_json(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--smoke", "--reps", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    rows = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {row["name"] for row in rows}
    for row in rows:
        assert result["metrics"][row["name"]]["unit"] == row["unit"]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    from workloads import WORKLOADS as defined

    assert list(defined) == WORKLOADS
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in defined.items()}


def test_no_result_without_a_program_to_measure(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(common.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_span_stack_self_time_on_nested_calls():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def leaf(cost):
        now[0] += cost

    def middle():
        now[0] += 1.0                       # own work
        tracer.span("node.leaf", None, leaf, 2.0)
        tracer.span("node.leaf", None, leaf, 3.0)
        now[0] += 4.0                       # own work

    tracer.span("sched.root", None, tracer.span, "link.middle", None, middle)
    spans = tracer.spans
    assert spans[("node.leaf", "link.middle")] == [2, 5.0, 5.0]
    assert spans[("link.middle", "sched.root")] == [1, 10.0, 5.0]
    assert spans[("sched.root", "")] == [1, 10.0, 0.0]
    by_layer = tracer.layer_self()
    assert by_layer["node"] == 5.0 and by_layer["link"] == 5.0 and by_layer["sched"] == 0.0
    assert sum(by_layer.values()) == tracer.total("sched.root")
    assert tracer.total("node") == 5.0 and tracer.count("node.leaf", "link") == 2
    assert not tracer.stack


def test_span_survives_an_exception_in_the_callee():
    tracer = tracing.Tracer()

    def boom():
        raise StopIteration

    with pytest.raises(StopIteration):
        tracer.span("sched.root", None, tracer.wrap("core.boom", boom))
    assert not tracer.stack
    assert tracer.count("core.boom") == 1


def test_books_close_and_wrappers_are_removed():
    from repro.multicast.builders import SPTBuilder
    from repro.simnet.engine import Scheduler
    from repro.simnet.node import Node

    watched = [(Scheduler, "at"), (Scheduler, "run"), (Scheduler, "every"),
               (Node, "receive"), (Node, "add_group_handler"), (SPTBuilder, "build")]
    before = [owner.__dict__[attr] for owner, attr in watched]
    result = worker.repetition("churn_repair", 1, trace=True, smoke=True)
    assert [owner.__dict__[attr] for owner, attr in watched] == before
    assert result["problems"] == [] and result["failed"] == 0
    layers = result["per_layer"]
    root = layers["trace.root_ms"]
    assert abs(result["layer_self_sum_ms"] - root) <= 0.01 * root
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    assert self_sum <= root and layers["trace.unattributed_frac"] < 0.05
    # Counters read from the program agree with spans counted from outside.
    assert layers["core.updates"] == layers["control.ticks"] > 0
    assert layers["multicast.local_repairs"] + layers["multicast.rebuild_repairs"] > 0
    assert layers["faults.fired"] > 0 and layers["node.spt_queries"] > 0


def test_fingerprint_repeats_and_tracks_the_seed():
    a = worker.repetition("join_ramp", 7, trace=False, smoke=True)
    b = worker.repetition("join_ramp", 7, trace=False, smoke=True)
    c = worker.repetition("join_ramp", 8, trace=False, smoke=True)
    assert a["sim_fingerprint"] == b["sim_fingerprint"]
    assert a["deterministic"] == b["deterministic"]
    assert a["sim_fingerprint"]["sha"] != c["sim_fingerprint"]["sha"]
    # The ledger's latencies are the workload runner's own samples.
    assert a["deterministic"]["join_samples"] == 32


def _with(monkeypatch, name, hook):
    """Replace workload ``name`` by itself plus ``hook(built)`` after building."""
    import workloads

    original = workloads.WORKLOADS[name]

    def build(seed, duration, smoke):
        built = original.build(seed, duration, smoke)
        hook(built)
        return built

    monkeypatch.setitem(workloads.WORKLOADS, name, workloads.Workload(
        name, "", original.smoke_duration, original.smoke_duration, build, {}))


def test_a_raise_fails_the_run_and_every_join_not_yet_served(monkeypatch):
    clean = worker.repetition("join_ramp", 1, trace=False, smoke=True)
    assert clean["failed"] == 0 and clean["problems"] == []

    def raise_before_the_crowd(built):
        sc = built.scenarios[0][1]
        assert min(t for _, t in built.joins) > 1.0
        sc.sched.at(1.0, lambda: (_ for _ in ()).throw(RuntimeError("injected")))

    _with(monkeypatch, "join_ramp", raise_before_the_crowd)
    result = worker.repetition("join_ramp", 1, trace=False, smoke=True)
    assert any("injected" in p for p in result["problems"])
    assert result["attempted"] == clean["attempted"]
    # The run, the crowd that never assembled, and each of its 32 joins.
    assert result["failed"] == 1 + 1 + 32


def test_a_sanity_miss_is_a_failed_operation(monkeypatch):
    def expect_a_larger_crowd(built):
        built.crowd += 1

    _with(monkeypatch, "join_ramp", expect_a_larger_crowd)
    result = worker.repetition("join_ramp", 1, trace=False, smoke=True)
    assert result["failed"] == 1 and "crowd of 33" in result["problems"][0]


@pytest.mark.parametrize("a, b, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.0, 10.2, 9.8, 10.1, 10.0], "unchanged"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.2], "regressed"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [5.0, 5.1, 4.9, 5.0, 5.2], "improved"),
    ([10.0, 14.0, 7.0, 10.5, 9.0], [10.2, 13.0, 7.5, 10.0, 9.5], "unresolved"),
])
def test_compare_verdicts(a, b, expected):
    assert compare.verdict(common.summarise(a), common.summarise(b), 0.1, "lower") == expected


def test_compare_reports_a_behaviour_change_without_regressing():
    def doc(sha):
        same = {row["name"]: common.summarise([1.0, 1.0, 1.0]) for row in SPEC["end_to_end"]}
        return {"workloads": {WORKLOADS[0]: {
            "end_to_end": same, "failed_frac": 0.0,
            "repetitions": [{"sim_fingerprint": {"sha": sha}}] * 3}}}

    rows, regressed = compare.compare(doc("aaaa"), doc("aaaa"), SPEC)
    assert {r[2] for r in rows} == {"unchanged"} and not regressed
    rows, regressed = compare.compare(doc("aaaa"), doc("bbbb"), SPEC)
    assert [r[2] for r in rows if r[1] == "sim_fingerprint"] == ["changed"] and not regressed
