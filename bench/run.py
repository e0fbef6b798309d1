"""The repo's benchmark: four seeded workloads, end-to-end and per-layer.

    python3 bench/run.py                        # all workloads, both phases
    python3 bench/run.py --workload join_ramp --seed 2 --reps 5 --out r.json
    python3 bench/run.py --workload fed_crowd --seed 1 --seconds 25 --trace 0

Every repetition runs in a fresh single-threaded subprocess (``worker.py``)
and every repetition of a workload is built from the same ``--seed``, so all
of them simulate the same input and must produce byte-equal outputs.

The *timed phase* runs ``--reps`` untraced repetitions round-robin over the
selected workloads (w1,w2,w3,w4,w1,...) so machine drift hits all of them
alike.  ``--seconds S`` is another way to give the count: one repetition per
``REP_NOMINAL_S`` seconds, the cost of one on the commit the workloads were
sized on.  The count depends on nothing measured, so two commits always run
the same work.  The *traced phase* runs one untraced and one traced
repetition per workload: the traced one yields the per-layer numbers, the
pair yields the tracing overhead and a check that tracing leaves the
simulation's outputs byte-equal.

``--trace 0`` runs the timed phase only, ``--trace 1`` the traced phase
only; with one ``--workload`` and an explicit ``--trace`` the last line of
standard output is the JSON object the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Any, Dict, List, Optional

import common

#: Wall seconds of one repetition (interpreter start, set-up and run) on the
#: commit the workloads were sized on; ``--seconds`` is divided by it.
REP_NOMINAL_S = 5.0
#: Fewer repetitions than this give no quartiles worth printing.
MIN_REPS = 3
#: One repetition may take this long before it is killed.
WORKER_TIMEOUT_S = 120.0
#: Σ layer self time must match the root span this closely.
BOOKS_TOLERANCE = 0.01


def run_worker(workload: str, seed: int, trace: bool, smoke: bool) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; a crash becomes a failed rep."""
    cmd = [sys.executable, str(common.BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    crash = {"workload": workload, "seed": seed, "traced": trace, "crashed": True,
             "attempted": 1, "failed": 1}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S, cwd=str(common.ROOT))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return dict(crash, problems=[f"worker exceeded {WORKER_TIMEOUT_S:g} s"])
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        sys.stderr.write(proc.stderr)
        return dict(crash, problems=[
            f"worker crashed ({exc}): {proc.stderr.strip()[-300:]}"])


# ----------------------------------------------------------------------
# Timed phase
# ----------------------------------------------------------------------
def timed_phase(names: List[str], seed: int, reps: int,
                smoke: bool) -> Dict[str, List[Dict[str, Any]]]:
    """``reps`` untraced repetitions of every workload, round-robin."""
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for _ in range(reps):
        for name in names:
            results[name].append(run_worker(name, seed, False, smoke))
    return results


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric of one workload, summarised over repetitions.
    The deterministic ones repeat exactly, so their quartiles coincide."""
    good = [r for r in reps if not r.get("crashed")]
    det = [r["deterministic"] for r in good]
    return {
        "wall_s": common.summarise([r["wall_s"] for r in good]),
        "setup_s": common.summarise([r["setup_s"] for r in good]),
        "peak_rss_mb": common.summarise([r["peak_rss_mb"] for r in good]),
        "level_accuracy": common.summarise(
            [1.0 - d["level_deviation"] for d in det if d["level_deviation"] is not None]),
        "ctrl_bytes_per_rx_s": common.summarise(
            [d["ctrl_bytes_per_rx_s"] for d in det if d["ctrl_bytes_per_rx_s"] is not None]),
    }


def same_outputs(reps: List[Dict[str, Any]]) -> List[str]:
    """Repetitions of one input must agree on every deterministic output."""
    good = [r for r in reps if not r.get("crashed")]
    problems = []
    for key in ("sim_fingerprint", "deterministic"):
        distinct = {json.dumps(r[key], sort_keys=True) for r in good}
        if len(distinct) > 1:
            problems.append(f"{key} differs between repetitions of one input: "
                            + " vs ".join(sorted(distinct)))
    return problems


def check_timed(reps: List[Dict[str, Any]]) -> List[str]:
    problems = [p for r in reps for p in r["problems"]] + same_outputs(reps)
    failed = sum(r["failed"] for r in reps)
    if failed:
        problems.append(f"{failed} of {sum(r['attempted'] for r in reps)} operations failed")
    return problems


# ----------------------------------------------------------------------
# Traced phase
# ----------------------------------------------------------------------
def traced_phase(name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """One untraced and one traced repetition of the same input."""
    plain = run_worker(name, seed, False, smoke)
    traced = run_worker(name, seed, True, smoke)
    problems = list(plain["problems"]) + list(traced["problems"])
    layers: Dict[str, float] = {}
    if not plain.get("crashed") and not traced.get("crashed"):
        layers = dict(traced["per_layer"])
        layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        problems += same_outputs([plain, traced])
        root = layers["trace.root_ms"]
        if abs(traced["layer_self_sum_ms"] - root) > BOOKS_TOLERANCE * root:
            problems.append(
                f"books do not close: layer self times sum to "
                f"{traced['layer_self_sum_ms']:.1f} ms, root span is {root:.1f} ms")
    return {"plain": plain, "traced": traced, "per_layer": layers, "problems": problems}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_end_to_end(name: str, reps: List[Dict[str, Any]], metrics: Dict[str, Any],
                     spec: Dict[str, Any]) -> None:
    print(f"\n== {name}: end to end, tracing off, {len(reps)} repetitions")
    print(f"   {'metric':<22}{'unit':<12}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for row in spec["end_to_end"]:
        s = metrics[row["name"]]
        if not s["n"]:
            print(f"   {row['name']:<22}{row['unit']:<12}{'-':>14}")
            continue
        print(f"   {row['name']:<22}{row['unit']:<12}{s['median']:>14.6g}"
              f"{s['q1']:>14.6g}{s['q3']:>14.6g}{s['n']:>4}")
    good = [r for r in reps if not r.get("crashed")]
    if len(good) < len(reps):
        print(f"   {len(reps) - len(good)} repetitions CRASHED")
    if good:
        # One line for all repetitions: check_timed reports any that differ.
        r = good[0]
        fp, d = r["sim_fingerprint"], r["deterministic"]
        print(f"   sim_fingerprint {fp['sha']} events={fp['events']} "
              f"drops={fp['drops']} ctrl_bytes={fp['control_bytes']:.0f} "
              f"levels={fp['level_sum']}/{fp['level_changes']}chg rounds={fp['rounds']} "
              f"operations={r['attempted']}-{r['failed']}failed "
              f"j2fp p50={d['join_p50_sim_ms']:.1f} p95={d['join_p95_sim_ms']:.1f} sim-ms "
              f"(n={d['join_samples']})")


def print_per_layer(name: str, phase: Dict[str, Any], spec: Dict[str, Any]) -> None:
    print(f"\n== {name}: per layer, from the traced repetition")
    layers = phase["per_layer"]
    if not layers:
        print("   (no traced repetition completed)")
        return
    root = layers["trace.root_ms"]
    for row in spec["per_layer"]:
        value = layers[row["name"]]
        share = f"{value / root:7.1%} of run" if row["name"].endswith(".self_ms") and root else ""
        print(f"   {row['name']:<36}{row['unit']:<10}{value:>16.6g}  {share}")


def contract_line(correct: bool, attempted: int, failed: int, values: Dict[str, float],
                  rows: List[Dict[str, Any]]) -> str:
    return json.dumps({
        "correct": correct, "attempted": max(1, attempted), "failed": failed,
        "metrics": {row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
                    for row in rows},
    })


def main(argv: Optional[List[str]] = None) -> int:
    spec = common.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (2 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help=f"length of the timed phase per workload: one repetition per {REP_NOMINAL_S:g} s")
    parser.add_argument("--reps", type=int, help="timed repetitions per workload, instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed phase only, 1: traced phase only (default: both)")
    parser.add_argument("--out", help="write everything measured to this JSON file")
    parser.add_argument("--smoke", action="store_true", help="tiny populations and horizons (for the smoke test)")
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    reps_wanted = args.reps or max(MIN_REPS, int(args.seconds // REP_NOMINAL_S))
    common.use_checkout_src()
    from workloads import WORKLOADS

    selected = [args.workload] if args.workload else names
    document: Dict[str, Any] = {
        "seed": args.seed, "smoke": args.smoke, "python": sys.version.split()[0],
        "workloads": {n: {"params": WORKLOADS[n].params,
                          "sim_duration_s": WORKLOADS[n].smoke_duration if args.smoke
                          else WORKLOADS[n].duration} for n in selected},
    }
    ok = True
    attempted = failed = 0
    if args.trace != 1:
        timed = timed_phase(selected, args.seed, reps_wanted, args.smoke)
        for name in selected:
            reps = timed[name]
            metrics = end_to_end(reps)
            problems = check_timed(reps)
            print_end_to_end(name, reps, metrics, spec)
            for p in problems:
                print(f"   PROBLEM: {p}")
            ok = ok and not problems
            w_attempted = sum(r["attempted"] for r in reps)
            w_failed = sum(r["failed"] for r in reps)
            attempted += w_attempted
            failed += w_failed
            document["workloads"][name].update(
                end_to_end=metrics, problems=problems,
                failed_frac=w_failed / w_attempted,
                repetitions=reps)
    if args.trace != 0:
        for name in selected:
            phase = traced_phase(name, args.seed, args.smoke)
            print_per_layer(name, phase, spec)
            for p in phase["problems"]:
                print(f"   PROBLEM: {p}")
            ok = ok and not phase["problems"]
            if args.trace == 1:
                attempted += phase["traced"]["attempted"]
                failed += phase["traced"]["failed"]
            document["workloads"][name].update(
                per_layer=phase["per_layer"], trace_problems=phase["problems"],
                spans=phase["traced"].get("spans", []))
    document["correct"] = ok
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
        print(f"\nwrote {args.out}")
    print("\nRESULT: " + ("OK" if ok else "FAILED — see PROBLEM lines above"))

    if args.workload and args.trace is not None:
        entry = document["workloads"][args.workload]
        if args.trace == 0:
            values = {k: s["median"] for k, s in entry["end_to_end"].items()}
            rows = spec["end_to_end"]
        else:
            values, rows = entry["per_layer"], spec["per_layer"]
        if any(values.get(row["name"]) is None for row in rows):
            return 1  # nothing completed: no result to print
        print(contract_line(ok, attempted, failed, values, rows))
        return 0
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
