"""Command-line front end: regenerate any of the paper's figures.

Usage::

    python -m repro fig6 [--duration 600] [--seed 1]
    python -m repro fig7 | fig8 | fig9 | fig10 | table1
    python -m repro demo --topology a --receivers 4 --traffic vbr --peak 3
    python -m repro chaos --seed 1 [--plan faults.json] [--json]
    python -m repro byzantine --seed 1 [--attack-start 30] [--json]
    python -m repro churn --seed 1 [--backends spt,protected] [--json]
    python -m repro crowd --seed 1 [--sizes 64,10000] [--loss 0,0.15] [--json]
    python -m repro federate --seed 1 [--domains 2,4,8] [--json]
    python -m repro fedchaos --seed 1 [--loss 0.05,0.2] [--windows 3,4] [--json]
    python -m repro bench [--quick] [--baseline BENCH_x.json]
    python -m repro lint [--json] [--root DIR]

``lint`` runs the determinism & contract linter (rules R001-R008 — incl.
the interprocedural shard-isolation/RNG-provenance rules, DESIGN.md §11
and §16) and exits 0 when clean, 1 on findings, 2 on internal error.

``REPRO_FULL=1`` switches every experiment to the paper's 1200 s horizon.
``demo``, ``chaos``, ``byzantine``, ``churn``, ``federate`` and
``fedchaos`` write run artifacts (manifest, JSONL event log, metrics)
under ``runs/`` — move the root with ``REPRO_RUNS_DIR`` or disable with
``--no-artifacts``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from .experiments import figures
from .experiments.topologies import build_topology_a, build_topology_b

__all__ = ["main"]


def _print_rows(rows: List[Dict[str, Any]], as_json: bool) -> None:
    if as_json:
        print(json.dumps(rows, indent=2, default=str))
        return
    if not rows:
        print("(no rows)")
        return
    cols = list(rows[0].keys())
    widths = {
        c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) for c in cols
    }
    print("  ".join(c.ljust(widths[c]) for c in cols))
    print("  ".join("-" * widths[c] for c in cols))
    for r in rows:
        print("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in cols))


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def _make_recorder(args, experiment: str):
    """A RunRecorder for this invocation, or None with ``--no-artifacts``."""
    if getattr(args, "no_artifacts", False):
        return None
    from .obs.run import RunRecorder

    cli_args = {
        k: v for k, v in vars(args).items()
        if k not in ("fn", "command") and not callable(v)
    }
    return RunRecorder(experiment, seed=getattr(args, "seed", None), args=cli_args)


def _cmd_fig6(args) -> None:
    _print_rows(
        figures.fig6_stability_topology_a(duration=args.duration, seed=args.seed),
        args.json,
    )


def _cmd_fig7(args) -> None:
    _print_rows(
        figures.fig7_stability_topology_b(duration=args.duration, seed=args.seed),
        args.json,
    )


def _cmd_fig8(args) -> None:
    _print_rows(figures.fig8_fairness(duration=args.duration, seed=args.seed), args.json)


def _cmd_fig9(args) -> None:
    data = figures.fig9_timeseries(duration=args.duration, seed=args.seed)
    if args.json:
        print(json.dumps(data, indent=2, default=str))
        return
    print(f"Figure 9: {data['n_sessions']} competing VBR sessions, {data['duration']:.0f}s")
    if getattr(args, "plot", False):
        from .metrics.ascii_plot import render_level_timeline
        from .simnet.tracing import StepTrace

        t1 = data["duration"]
        print(f"subscription level per session, 0..{t1:.0f}s "
              f"(one digit per {t1 / 72:.1f}s bucket):")
        for rid, s in data["sessions"].items():
            trace = StepTrace(0.0, 0)
            for t, v in s["subscription"]:
                trace.record(t, v)
            print(" ", render_level_timeline(trace, 0.0, t1, width=72, label=f"{rid:>5} "))
        return
    for rid, s in data["sessions"].items():
        print(
            f"  {rid}: mean level {s['mean_level']:.2f}, max {s['max_level']}, "
            f"over-subscribed: {s['over_subscribed']}"
        )
        tail = s["subscription"][-8:]
        print("    recent subscription changes:", [(round(t, 1), int(v)) for t, v in tail])


def _cmd_fig10(args) -> None:
    _print_rows(figures.fig10_staleness(duration=args.duration, seed=args.seed), args.json)


def _cmd_table1(args) -> None:
    _print_rows(figures.table1_rows(), args.json)


def _cmd_chaos(args) -> None:
    from .experiments.chaos import (
        DEFAULT_DURATION,
        render_chaos_report,
        run_chaos,
    )
    from .faults import FaultPlan

    plan = None
    if args.plan:
        try:
            with open(args.plan) as fh:
                plan = FaultPlan.from_dicts(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            sys.exit(f"chaos: cannot load fault plan {args.plan!r}: {exc}")
    recorder = _make_recorder(args, "chaos")
    result = run_chaos(
        seed=args.seed,
        duration=args.duration or DEFAULT_DURATION,
        n_receivers=args.receivers,
        plan=plan,
        recover_intervals=args.recover_intervals,
        recorder=recorder,
    )
    if recorder is not None:
        print(f"run artifacts: {recorder.finalize(result)}", file=sys.stderr)
    if args.json:
        print(json.dumps(result, indent=2, default=str))
    else:
        print(render_chaos_report(result))
    if not result["ok"]:
        sys.exit(1)


def _cmd_churn(args) -> None:
    from .experiments.churn import (
        DEFAULT_DURATION,
        render_churn_report,
        run_churn,
    )
    from .faults import FaultPlan

    plan = None
    if args.plan:
        try:
            with open(args.plan) as fh:
                plan = FaultPlan.from_dicts(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            sys.exit(f"churn: cannot load fault plan {args.plan!r}: {exc}")
    backends = [b for b in args.backends.split(",") if b] if args.backends else None
    recorder = _make_recorder(args, "churn")
    try:
        result = run_churn(
            seed=args.seed,
            duration=args.duration or DEFAULT_DURATION,
            n_receivers=args.receivers,
            backends=backends,
            plan=plan,
            recover_intervals=args.recover_intervals,
            recorder=recorder,
        )
    except ValueError as exc:
        sys.exit(f"churn: {exc}")
    if recorder is not None:
        print(f"run artifacts: {recorder.finalize(result)}", file=sys.stderr)
    if args.json:
        print(json.dumps(result, indent=2, default=str))
    else:
        print(render_churn_report(result))
    if not result["ok"]:
        sys.exit(1)


def _cmd_crowd(args) -> None:
    from .experiments.crowd import (
        DEFAULT_DURATION,
        render_crowd_report,
        run_crowd,
    )
    from .workloads import WorkloadSpec

    spec = None
    if args.spec:
        try:
            with open(args.spec) as fh:
                spec = WorkloadSpec.from_dict(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            sys.exit(f"crowd: cannot load workload spec {args.spec!r}: {exc}")
    sizes = [int(s) for s in args.sizes.split(",") if s]
    loss_rates = [float(lo) for lo in args.loss.split(",") if lo]
    recorder = _make_recorder(args, "crowd")
    try:
        result = run_crowd(
            seed=args.seed,
            duration=args.duration or DEFAULT_DURATION,
            sizes=sizes,
            loss_rates=loss_rates,
            n_edges=args.edges,
            n_sessions=args.sessions,
            incumbents=args.incumbents,
            max_controlled=args.max_controlled,
            control_bound=args.control_bound,
            federated_crowd=args.federated_crowd,
            spec=spec,
            recorder=recorder,
        )
    except ValueError as exc:
        sys.exit(f"crowd: {exc}")
    if args.save_spec:
        from .experiments.crowd import (
            build_crowd_scenario,
            default_crowd_spec,
            edge_node_names,
        )

        if spec is None:
            _sc, session_ids = build_crowd_scenario(
                seed=args.seed, n_edges=args.edges,
                n_sessions=args.sessions, incumbents=args.incumbents,
            )
            size = min(sizes)
            mode = "controlled" if size <= args.max_controlled else "static"
            spec = default_crowd_spec(
                size, edge_node_names(args.edges), session_ids,
                duration=args.duration or DEFAULT_DURATION,
                seed=args.seed, mode=mode,
            )
        with open(args.save_spec, "w") as fh:
            json.dump(spec.to_dict(), fh, indent=2)
        print(f"workload spec: {args.save_spec}", file=sys.stderr)
    if recorder is not None:
        print(f"run artifacts: {recorder.finalize(result)}", file=sys.stderr)
    if args.json:
        print(json.dumps(result, indent=2, default=str))
    else:
        print(render_crowd_report(result))
    if not result["ok"]:
        sys.exit(1)


def _cmd_federate(args) -> None:
    from .federation import (
        DEFAULT_DURATION,
        render_federate_report,
        run_federate,
    )

    domain_counts = [int(n) for n in args.domains.split(",") if n]
    recorder = _make_recorder(args, "federate")
    try:
        result = run_federate(
            seed=args.seed,
            duration=args.duration or DEFAULT_DURATION,
            total_receivers=args.receivers,
            domain_counts=domain_counts,
            cadence=args.cadence,
            tolerance=args.tolerance,
            recorder=recorder,
        )
    except ValueError as exc:
        sys.exit(f"federate: {exc}")
    if recorder is not None:
        print(f"run artifacts: {recorder.finalize(result)}", file=sys.stderr)
    if args.json:
        print(json.dumps(result, indent=2, default=str))
    else:
        print(render_federate_report(result))
    if not result["ok"]:
        sys.exit(1)


def _cmd_fedchaos(args) -> None:
    from .faults import FaultPlan
    from .federation import (
        DEFAULT_CHAOS_DURATION,
        render_fedchaos_report,
        run_fedchaos,
    )

    plan = None
    if args.plan:
        try:
            with open(args.plan) as fh:
                plan = FaultPlan.from_dicts(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            sys.exit(f"fedchaos: cannot load fault plan {args.plan!r}: {exc}")
    loss_rates = [float(x) for x in args.loss.split(",") if x]
    windows = [int(x) for x in args.windows.split(",") if x]
    recorder = _make_recorder(args, "fedchaos")
    try:
        result = run_fedchaos(
            seed=args.seed,
            duration=args.duration or DEFAULT_CHAOS_DURATION,
            cadence=args.cadence,
            n_domains=args.domains,
            receivers_per_domain=args.receivers,
            loss_rates=loss_rates,
            partition_rounds=windows,
            partition_domain=args.partition_domain,
            staleness_budget=args.staleness_budget,
            retry_limit=args.retries,
            recovery_rounds=args.recovery_rounds,
            plan=plan,
            recorder=recorder,
        )
    except ValueError as exc:
        sys.exit(f"fedchaos: {exc}")
    if recorder is not None:
        print(f"run artifacts: {recorder.finalize(result)}", file=sys.stderr)
    if args.json:
        print(json.dumps(result, indent=2, default=str))
    else:
        print(render_fedchaos_report(result))
    if not result["ok"]:
        sys.exit(1)


def _cmd_byzantine(args) -> None:
    from .experiments.byzantine import (
        DEFAULT_DURATION,
        render_byzantine_report,
        run_byzantine,
    )

    recorder = _make_recorder(args, "byzantine")
    try:
        result = run_byzantine(
            seed=args.seed,
            duration=args.duration or DEFAULT_DURATION,
            attack_start=args.attack_start,
            quarantine_intervals=args.quarantine_intervals,
            divergence_budget=args.divergence_budget,
            recorder=recorder,
        )
    except ValueError as exc:
        sys.exit(f"byzantine: {exc}")
    if recorder is not None:
        print(f"run artifacts: {recorder.finalize(result)}", file=sys.stderr)
    if args.json:
        print(json.dumps(result, indent=2, default=str))
    else:
        print(render_byzantine_report(result))
    if not result["ok"]:
        sys.exit(1)


def _cmd_demo(args) -> None:
    if args.topology == "a":
        sc = build_topology_a(
            n_receivers=args.receivers, traffic=args.traffic,
            peak_to_mean=args.peak, seed=args.seed, staleness=args.staleness,
        )
    else:
        sc = build_topology_b(
            n_sessions=args.receivers, traffic=args.traffic,
            peak_to_mean=args.peak, seed=args.seed, staleness=args.staleness,
        )
    duration = args.duration or figures.default_duration()
    recorder = _make_recorder(args, "demo")
    if recorder is not None:
        recorder.attach(sc, sample_interval=5.0)
    print(sc.network.describe())
    print(f"running {duration:.0f}s of simulated time ...")
    res = sc.run(duration)
    print(res.summary())
    print(f"mean relative deviation: {res.mean_deviation(min(60.0, duration / 4)):.3f}")
    if recorder is not None:
        print(f"run artifacts: {recorder.finalize(sim_time=duration)}", file=sys.stderr)


def _cmd_bench(args) -> None:
    from .obs.bench import (
        check_against_baseline,
        render_bench_report,
        run_bench,
        write_bench_file,
    )

    result = run_bench(quick=args.quick)
    path = write_bench_file(result, args.out)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(render_bench_report(result))
    print(f"wrote {path}", file=sys.stderr)
    if args.baseline:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            sys.exit(f"bench: cannot load baseline {args.baseline!r}: {exc}")
        ok, msg = check_against_baseline(result, baseline, tolerance=args.tolerance)
        print(("PASS: " if ok else "FAIL: ") + msg)
        if not ok:
            sys.exit(1)


def _cmd_lint(args) -> int:
    from .analysis import LintError, run_lint

    try:
        result = run_lint(root=args.root)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # defensive: a linter crash must exit 2, not 1
        print(f"lint: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        for finding in result.findings:
            print(finding.render())
        status = "clean" if result.clean else f"{len(result.findings)} finding(s)"
        print(f"lint: {result.files_scanned} files scanned, {status}",
              file=sys.stderr)
    return 0 if result.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` / the ``repro`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TopoSense (ICPP 2001) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--duration", type=float, default=None,
                       help="simulated seconds (default: REPRO_* env or 300)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--json", action="store_true", help="emit JSON rows")

    for name, fn, help_ in [
        ("fig6", _cmd_fig6, "stability in Topology A"),
        ("fig7", _cmd_fig7, "stability in Topology B"),
        ("fig8", _cmd_fig8, "inter-session fairness in Topology B"),
        ("fig9", _cmd_fig9, "subscription/loss time series, 4 VBR sessions"),
        ("fig10", _cmd_fig10, "impact of stale topology information"),
        ("table1", _cmd_table1, "the demand decision table"),
    ]:
        p = sub.add_parser(name, help=help_)
        common(p)
        if name == "fig9":
            p.add_argument("--plot", action="store_true",
                           help="draw an ASCII timeline instead of a summary")
        p.set_defaults(fn=fn)

    chaos = sub.add_parser(
        "chaos",
        help="replay a seeded fault storm and report per-receiver recovery",
    )
    common(chaos)
    chaos.add_argument("--receivers", type=int, default=4)
    chaos.add_argument("--plan", type=str, default=None,
                       help="JSON fault plan (default: the canonical storm)")
    chaos.add_argument("--recover-intervals", type=float, default=3.0,
                       help="recovery bound, in control intervals (default 3)")
    chaos.add_argument("--no-artifacts", action="store_true",
                       help="skip writing the run directory under runs/")
    chaos.set_defaults(fn=_cmd_chaos)

    churn = sub.add_parser(
        "churn",
        help="sweep the tree-builder backends through a seeded "
             "membership-churn + link-failure storm",
    )
    common(churn)
    churn.add_argument("--receivers", type=int, default=6)
    churn.add_argument("--backends", type=str, default=None,
                       help="comma-separated backend names "
                            "(default: spt,degree,protected)")
    churn.add_argument("--plan", type=str, default=None,
                       help="JSON fault plan (default: seeded churn + link cuts)")
    churn.add_argument("--recover-intervals", type=float, default=4.0,
                       help="recovery bound, in control intervals (default 4)")
    churn.add_argument("--no-artifacts", action="store_true",
                       help="skip writing the run directory under runs/")
    churn.set_defaults(fn=_cmd_churn)

    crowd = sub.add_parser(
        "crowd",
        help="sweep flash-crowd sizes x wireless loss rates through the "
             "declarative workload engine and gate replay determinism, "
             "loss attribution and control-plane scaling",
    )
    common(crowd)
    crowd.add_argument("--sizes", type=str, default="64,10000",
                       help="comma-separated flash-crowd sizes "
                            "(default 64,10000)")
    crowd.add_argument("--loss", type=str, default="0,0.15",
                       help="comma-separated wireless channel loss rates "
                            "(default 0,0.15)")
    crowd.add_argument("--edges", type=int, default=8,
                       help="wireless edge nodes (default 8)")
    crowd.add_argument("--sessions", type=int, default=2,
                       help="concurrent sessions for the Zipf demand "
                            "(default 2)")
    crowd.add_argument("--incumbents", type=int, default=4,
                       help="always-on controlled receivers probing "
                            "stability (default 4)")
    crowd.add_argument("--max-controlled", type=int, default=512,
                       help="largest crowd that joins fully controlled; "
                            "bigger crowds join static (default 512)")
    crowd.add_argument("--control-bound", type=float, default=512.0,
                       help="declared control-byte bound, bytes/s per "
                            "live receiver (default 512)")
    crowd.add_argument("--federated-crowd", type=int, default=32,
                       help="per-domain crowd on the federated plane "
                            "(0 skips it; default 32)")
    crowd.add_argument("--spec", type=str, default=None,
                       help="JSON workload spec to replay (requires a "
                            "single --sizes entry)")
    crowd.add_argument("--save-spec", type=str, default=None,
                       help="write the smallest sweep point's workload "
                            "spec to this JSON file")
    crowd.add_argument("--no-artifacts", action="store_true",
                       help="skip writing the run directory under runs/")
    crowd.set_defaults(fn=_cmd_crowd)

    fed = sub.add_parser(
        "federate",
        help="sweep domain count at fixed total receivers through the "
             "federated control plane and gate its scaling claims",
    )
    common(fed)
    fed.add_argument("--receivers", type=int, default=1024,
                     help="total receivers, split evenly across domains "
                          "(default 1024)")
    fed.add_argument("--domains", type=str, default="2,4,8",
                     help="comma-separated domain counts to sweep "
                          "(default 2,4,8)")
    fed.add_argument("--cadence", type=float, default=4.0,
                     help="summary-exchange cadence, simulated seconds "
                          "(default 4)")
    fed.add_argument("--tolerance", type=float, default=0.15,
                     help="allowed control-bytes-per-receiver spread "
                          "across the sweep (default 0.15)")
    fed.add_argument("--no-artifacts", action="store_true",
                     help="skip writing the run directory under runs/")
    fed.set_defaults(fn=_cmd_federate)

    fedchaos = sub.add_parser(
        "fedchaos",
        help="sweep inter-domain loss and partition windows with a "
             "coordinator crash/failover and gate partition tolerance",
    )
    common(fedchaos)
    fedchaos.add_argument("--domains", type=int, default=3,
                          help="number of administrative domains (default 3)")
    fedchaos.add_argument("--receivers", type=int, default=8,
                          help="receivers per domain (default 8)")
    fedchaos.add_argument("--cadence", type=float, default=4.0,
                          help="summary-exchange cadence, simulated seconds "
                               "(default 4)")
    fedchaos.add_argument("--loss", type=str, default="0.05,0.2",
                          help="comma-separated channel loss rates to sweep "
                               "(default 0.05,0.2)")
    fedchaos.add_argument("--windows", type=str, default="3,4",
                          help="comma-separated partition windows, in "
                               "lockstep rounds (default 3,4)")
    fedchaos.add_argument("--partition-domain", type=str, default="d2",
                          help="domain cut off during the window "
                               "(default d2)")
    fedchaos.add_argument("--staleness-budget", type=int, default=2,
                          help="advice age (rounds) tolerated before the "
                               "ceiling decays (default 2)")
    fedchaos.add_argument("--retries", type=int, default=3,
                          help="summary send attempts per round (default 3)")
    fedchaos.add_argument("--recovery-rounds", type=int, default=3,
                          help="rounds allowed for post-failover recovery "
                               "(default 3)")
    fedchaos.add_argument("--plan", type=str, default=None,
                          help="JSON fault plan replacing the built-in "
                               "storm (collapses the sweep to one point)")
    fedchaos.add_argument("--no-artifacts", action="store_true",
                          help="skip writing the run directory under runs/")
    fedchaos.set_defaults(fn=_cmd_fedchaos)

    byz = sub.add_parser(
        "byzantine",
        help="lying receivers vs the report guard, judged against a "
             "same-seed no-attack baseline",
    )
    common(byz)
    byz.add_argument("--attack-start", type=float, default=30.0,
                     help="simulated time the liars switch on (default 30)")
    byz.add_argument("--quarantine-intervals", type=float, default=5.0,
                     help="quarantine deadline, in control intervals (default 5)")
    byz.add_argument("--divergence-budget", type=float, default=1.0,
                     help="allowed honest-receiver level divergence vs "
                          "baseline (default 1 layer)")
    byz.add_argument("--no-artifacts", action="store_true",
                     help="skip writing the run directory under runs/")
    byz.set_defaults(fn=_cmd_byzantine)

    demo = sub.add_parser("demo", help="run one scenario and print a summary")
    common(demo)
    demo.add_argument("--topology", choices=["a", "b"], default="a")
    demo.add_argument("--receivers", type=int, default=4,
                      help="receivers (topology a) or sessions (topology b)")
    demo.add_argument("--traffic", choices=["cbr", "vbr"], default="cbr")
    demo.add_argument("--peak", type=float, default=3.0, help="VBR peak-to-mean ratio")
    demo.add_argument("--staleness", type=float, default=0.0)
    demo.add_argument("--no-artifacts", action="store_true",
                      help="skip writing the run directory under runs/")
    demo.set_defaults(fn=_cmd_demo)

    bench = sub.add_parser(
        "bench",
        help="run the seeded perf suite and write BENCH_<rev>.json",
    )
    bench.add_argument("--quick", action="store_true",
                       help="short horizons for CI smoke use")
    bench.add_argument("--out", type=str, default=".",
                       help="directory for BENCH_<rev>.json (default: .)")
    bench.add_argument("--json", action="store_true",
                       help="emit the raw result JSON instead of the report")
    bench.add_argument("--baseline", type=str, default=None,
                       help="baseline BENCH_*.json to gate events/sec against")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed events/sec regression fraction (default 0.30)")
    bench.set_defaults(fn=_cmd_bench)

    lint = sub.add_parser(
        "lint",
        help="run the determinism & contract linter (rules R001-R008, "
             "incl. interprocedural R006/R007)",
    )
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable findings document "
                           "(version 2: includes per-rule timings_ms)")
    lint.add_argument("--root", type=str, default=".",
                      help="repo root to scan (default: .)")
    lint.set_defaults(fn=_cmd_lint)

    args = parser.parse_args(argv)
    rc = args.fn(args)
    return rc if isinstance(rc, int) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
