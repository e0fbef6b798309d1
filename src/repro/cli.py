"""Command-line front end: regenerate any of the paper's figures.

Usage::

    python -m repro fig6 [--duration 1200] [--seed 1] [--json] [--out FILE]
    python -m repro fig7 | fig8 | fig9 [--plot] | fig10 | table1
    python -m repro ablation_backoff | ... | control_traffic | hierarchy_tiered
    python -m repro demo --topology a --receivers 4 --traffic vbr --peak 3
    python -m repro chaos --seed 1 [--save-plan f.json | --plan f.json] [--json]
    python -m repro byzantine --seed 1 [--attack-start 30] [--json]
    python -m repro churn --seed 1 [--save-plan f.json | --plan f.json] [--json]
    python -m repro crowd --seed 1 [--sizes 64,10000] [--loss 0,0.15] [--json]
    python -m repro federate --seed 1 [--domains 2,4,8] [--json]
    python -m repro fedchaos --seed 1 [--loss 0.05,0.2] [--windows 3,4] [--json]

Every figure, the table and every ablation is a row of :data:`FIGURES`,
named after its ``benchmarks/results/<name>.json`` file and driven by one
function: its default ``--duration`` is the horizon that file was made at
(``--duration 1200`` is the paper's), ``--out FILE`` writes the document
``--json`` prints, and each shape check its gate fails goes to stderr.
The six gated experiments are rows of :data:`EXPERIMENTS` driven by one
function; every one takes ``--json --strip-timings`` (output two same-input
runs must agree on byte for byte) and, where its input is replayable,
``--save-plan``/``--plan`` or ``--save-spec``/``--spec``.

Every subcommand exits 0 when its gates hold, 1 when one fails and 2 with a
one-line message on input it cannot use.

``demo``, ``chaos``, ``byzantine``, ``churn``, ``crowd``, ``federate`` and
``fedchaos`` write run artifacts (manifest, JSONL event log, metrics)
under ``runs/`` — move the root with ``REPRO_RUNS_DIR`` or disable with
``--no-artifacts``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .experiments import byzantine, chaos, churn, crowd, figures
from .experiments.topologies import build_topology_a, build_topology_b
from .faults.plan import FaultPlan
from .federation import chaos as fed_chaos
from .federation import experiment as fed_experiment
from .obs.run import RunRecorder, strip_timings
from .workloads.spec import WorkloadSpec

__all__ = ["EXPERIMENTS", "FIGURES", "main"]


# ----------------------------------------------------------------------
# The figure table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure:
    """One committed result file: its driver, horizon and shape gate."""

    name: str  # the benchmarks/results/<name>.json stem
    help: str
    #: ``(duration=, [seed=]) -> JSON document``; without ``seed`` the
    #: driver uses the one its committed file was made with.
    run: Callable[..., Any]
    #: The horizon the committed file was made at (None: nothing simulated).
    duration: Optional[float]
    #: ``(document, duration) -> failed checks``; never raises.
    gate: Callable[[Any, Optional[float]], List[str]]


FIGURES: Tuple[Figure, ...] = (
    Figure("fig6", "stability in Topology A",
           figures.fig6_stability_topology_a, 200.0, figures.fig6_gate),
    Figure("fig7", "stability in Topology B",
           figures.fig7_stability_topology_b, 200.0, figures.fig7_gate),
    Figure("fig8", "inter-session fairness in Topology B",
           figures.fig8_fairness, 300.0, figures.fig8_gate),
    Figure("fig9", "subscription/loss time series, 4 VBR sessions",
           figures.fig9_timeseries, 300.0, figures.fig9_gate),
    Figure("fig10", "impact of stale topology information",
           figures.fig10_staleness, 200.0, figures.fig10_gate),
    Figure("table1", "the demand decision table",
           figures.table1_rows, None, figures.table1_gate),
    Figure("ablation_backoff", "back-off interval vs stability",
           figures.ablation_backoff, 300.0, figures.ablation_backoff_gate),
    Figure("ablation_baselines", "oracle vs TopoSense vs RLM vs static",
           figures.ablation_baselines, 200.0, figures.ablation_baselines_gate),
    Figure("ablation_expedited_leave", "standard vs expedited group leaves",
           figures.ablation_expedited_leave, 200.0,
           figures.ablation_expedited_leave_gate),
    Figure("ablation_granularity", "6 doubling vs 11 finer layers",
           figures.ablation_granularity, 300.0, figures.ablation_granularity_gate),
    Figure("ablation_interval", "control interval size sweep",
           figures.ablation_interval, 300.0, figures.ablation_interval_gate),
    Figure("ablation_leave_latency", "IGMP leave latency sweep",
           figures.ablation_leave_latency, 300.0, figures.ablation_leave_latency_gate),
    Figure("ablation_loss_smoothing", "raw vs EWMA-smoothed loss under VBR",
           figures.ablation_loss_smoothing, 300.0, figures.ablation_loss_smoothing_gate),
    Figure("ablation_red", "drop-tail vs RED queues under VBR",
           figures.ablation_red, 300.0, figures.ablation_red_gate),
    Figure("ablation_reset_period", "capacity-estimate reset period sweep",
           figures.ablation_reset_period, 300.0, figures.ablation_reset_period_gate),
    Figure("control_traffic", "control packets per interval vs receivers",
           figures.control_traffic, 120.0, figures.control_traffic_gate),
    Figure("hierarchy_domains", "two domains, two independent controllers",
           figures.hierarchy_domains, 200.0, figures.hierarchy_domains_gate),
    Figure("hierarchy_tiered", "a random tiered ISP topology",
           figures.hierarchy_tiered, 200.0, figures.hierarchy_tiered_gate),
)


# ----------------------------------------------------------------------
# The experiment table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Opt:
    """One experiment-specific flag and the ``run_*`` keyword it feeds."""

    flag: str
    kwarg: str
    type: Callable[[str], Any]
    default: Any
    help: str


@dataclass(frozen=True)
class Replay:
    """An experiment's replayable input: ``--<kind> FILE`` loads it and
    ``--save-<kind> FILE`` writes the one the run used."""

    kind: str  # the flag stem and the run_* keyword: "plan" or "spec"
    load: Callable[[Any], Any]
    #: ``(result, loaded input or None) -> JSON document`` of the input run.
    used: Callable[[Dict[str, Any], Any], Any]
    help: str
    save_help: str = "write the plan that was used to this JSON file"


@dataclass(frozen=True)
class Experiment:
    """One gated experiment: everything the driver needs, as data."""

    name: str
    help: str
    run: Callable[..., Dict[str, Any]]
    render: Callable[[Dict[str, Any]], str]
    duration: float
    #: Wall-clock result keys ``--strip-timings`` removes (at any depth).
    timing_keys: Tuple[str, ...]
    options: Tuple[Opt, ...]
    replay: Optional[Replay] = None


# argparse ``type=`` converters; it names them in its error messages, and a
# ValueError from one is an exit-2 usage error.
def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def int_list(text: str) -> List[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def float_list(text: str) -> List[float]:
    return [float(s) for s in text.split(",") if s.strip()]


def _result_plan(result: Dict[str, Any], _loaded: Any) -> Any:
    return result["plan"]


def _single_point_plan(result: Dict[str, Any], _loaded: Any) -> Any:
    points = result["points"]
    if len(points) != 1:
        raise ValueError("--save-plan needs exactly one --loss and one "
                         "--windows value (a plan encodes a single point)")
    return points[0]["plan"]


def _smallest_crowd_spec(result: Dict[str, Any], loaded: Any) -> Any:
    if loaded is not None:
        return loaded.to_dict()
    return crowd.crowd_spec_for(
        result["sizes"][0],
        **{k: result[k] for k in ("seed", "duration", "n_edges", "max_controlled")},
    ).to_dict()


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        "chaos", "replay a seeded fault storm and report per-receiver recovery",
        chaos.run_chaos, chaos.render_chaos_report, chaos.DEFAULT_DURATION, (),
        (
            Opt("--receivers", "n_receivers", int, 4, "receivers"),
            Opt("--recover-intervals", "recover_intervals", float, 3.0,
                "recovery bound, in control intervals"),
        ),
        Replay("plan", FaultPlan.from_dicts, _result_plan,
               "JSON fault plan to replay (default: the canonical storm)"),
    ),
    Experiment(
        "byzantine",
        "lying receivers vs the report guard, judged against a same-seed "
        "no-attack baseline",
        byzantine.run_byzantine, byzantine.render_byzantine_report,
        byzantine.DEFAULT_DURATION, (),
        (
            Opt("--attack-start", "attack_start", float, 30.0,
                "simulated time the liars switch on"),
            Opt("--quarantine-intervals", "quarantine_intervals", float, 5.0,
                "quarantine deadline, in control intervals"),
        ),
    ),
    Experiment(
        "churn",
        "rebuild shortest-path trees through a seeded membership-churn + "
        "link-failure storm and gate every receiver's recovery",
        churn.run_churn, churn.render_churn_report, churn.DEFAULT_DURATION, (),
        (
            Opt("--receivers", "n_receivers", int, 6, "receivers"),
            Opt("--recover-intervals", "recover_intervals", float, 4.0,
                "recovery bound, in control intervals"),
        ),
        Replay("plan", FaultPlan.from_dicts, _result_plan,
               "JSON fault plan to replay (default: seeded churn + link cuts)"),
    ),
    Experiment(
        "crowd",
        "sweep flash-crowd sizes x wireless loss rates through the "
        "declarative workload engine and gate replay determinism, loss "
        "attribution and control-plane scaling",
        crowd.run_crowd, crowd.render_crowd_report, crowd.DEFAULT_DURATION,
        ("wall_s",),
        (
            Opt("--sizes", "sizes", int_list, "64,10000",
                "comma-separated flash-crowd sizes"),
            Opt("--loss", "loss_rates", float_list, "0,0.15",
                "comma-separated wireless channel loss rates"),
            Opt("--edges", "n_edges", int, 8, "wireless edge nodes"),
            Opt("--incumbents", "incumbents", int, 4,
                "always-on controlled receivers probing stability"),
            Opt("--max-controlled", "max_controlled", int,
                crowd.DEFAULT_MAX_CONTROLLED,
                "largest crowd that joins fully controlled; bigger crowds "
                "join static"),
            Opt("--control-bound", "control_bound", float,
                crowd.CONTROL_BYTES_PER_LIVE_BOUND,
                "declared control-byte bound, bytes/s per live receiver"),
            Opt("--federated-crowd", "federated_crowd", int, 32,
                "per-domain crowd on the federated plane (0 skips it)"),
        ),
        Replay("spec", WorkloadSpec.from_dict, _smallest_crowd_spec,
               "JSON workload spec to replay (requires a single --sizes entry)",
               "write the smallest sweep point's workload spec to this "
               "JSON file"),
    ),
    Experiment(
        "federate",
        "sweep domain count at fixed total receivers through the federated "
        "control plane and gate its scaling claims",
        fed_experiment.run_federate, fed_experiment.render_federate_report,
        fed_experiment.DEFAULT_DURATION, ("wall_s", "shard_wall_ms"),
        (
            Opt("--receivers", "total_receivers", int, 1024,
                "total receivers, split evenly across domains"),
            Opt("--domains", "domain_counts", int_list, "2,4,8",
                "comma-separated domain counts to sweep"),
            Opt("--cadence", "cadence", float, 4.0,
                "summary-exchange cadence, simulated seconds"),
            Opt("--tolerance", "tolerance", float, 0.15,
                "allowed control-bytes-per-receiver spread across the sweep"),
        ),
    ),
    Experiment(
        "fedchaos",
        "sweep inter-domain loss and partition windows with a coordinator "
        "crash/failover and gate partition tolerance",
        fed_chaos.run_fedchaos, fed_chaos.render_fedchaos_report,
        fed_chaos.DEFAULT_CHAOS_DURATION, ("wall_s",),
        (
            Opt("--domains", "n_domains", int, 3,
                "number of administrative domains"),
            Opt("--receivers", "receivers_per_domain", int, 8,
                "receivers per domain"),
            Opt("--cadence", "cadence", float, 4.0,
                "summary-exchange cadence, simulated seconds"),
            Opt("--loss", "loss_rates", float_list, "0.05,0.2",
                "comma-separated channel loss rates to sweep"),
            Opt("--windows", "partition_rounds", int_list, "3,4",
                "comma-separated partition windows, in lockstep rounds"),
            Opt("--partition-domain", "partition_domain", str, "d2",
                "domain cut off during the window"),
            Opt("--staleness-budget", "staleness_budget", int, 2,
                "advice age (rounds) tolerated before the ceiling decays"),
        ),
        Replay("plan", FaultPlan.from_dicts, _single_point_plan,
               "JSON fault plan replacing the built-in storm (collapses the "
               "sweep to one point)",
               "write the plan that was used to this JSON file (needs a "
               "single --loss and --windows value)"),
    ),
)


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _flat(row: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    """``row`` with nested dicts as dotted columns and series left out."""
    out: Dict[str, Any] = {}
    for key, value in row.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        elif not isinstance(value, list):
            out[prefix + key] = value
    return out


def _table(doc: Any) -> List[Dict[str, Any]]:
    """The rows a figure document prints as: a list row for row, fig9 one
    row per session (its series are for ``--json`` and ``--plot``), any
    other document as one row."""
    if isinstance(doc, list):
        rows = doc
    elif "sessions" in doc:
        rows = [dict(session=rid, **s) for rid, s in doc["sessions"].items()]
    else:
        rows = [doc]
    return [_flat(r) for r in rows]


def _print_rows(rows: List[Dict[str, Any]]) -> None:
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


def _make_recorder(args, experiment: str) -> Optional[RunRecorder]:
    """A RunRecorder for this invocation, or None with ``--no-artifacts``."""
    if args.no_artifacts:
        return None
    cli_args = {
        k: v for k, v in vars(args).items()
        if k != "command" and not callable(v)
    }
    return RunRecorder(experiment, seed=args.seed, args=cli_args)


def _plot_fig9(data: Dict[str, Any]) -> None:
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


def _cmd_figure(row: Figure, args, error) -> int:
    """Drive one :data:`FIGURES` row: run, print, write ``--out``; exit 1
    iff its gate failed, each failed check on stderr."""
    seed = {} if args.seed is None else {"seed": args.seed}
    doc = row.run(duration=args.duration, **seed)
    text = json.dumps(doc, indent=2, default=str)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            error(f"cannot write --out {args.out!r}: {exc}")
    if args.json:
        print(text)
    elif getattr(args, "plot", False):
        _plot_fig9(doc)
    else:
        _print_rows(_table(doc))
    failed = row.gate(doc, args.duration)
    for check in failed:
        print(f"repro {row.name}: gate failed: {check}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_experiment(row: Experiment, args, error) -> int:
    """Drive one :data:`EXPERIMENTS` row: load its input, run, save the
    input, write artifacts, print; exit 1 iff a gate failed."""
    kwargs = {o.kwarg: getattr(args, _dest(o.flag)) for o in row.options}
    replay, loaded, save_path = row.replay, None, None
    if replay is not None:
        save_path = getattr(args, f"save_{replay.kind}")
        load_path = getattr(args, replay.kind)
        if load_path:
            try:
                with open(load_path) as fh:
                    loaded = replay.load(json.load(fh))
            except (OSError, ValueError, KeyError) as exc:
                error(f"cannot load --{replay.kind} {load_path!r}: {exc}")
        kwargs[replay.kind] = loaded
    recorder = _make_recorder(args, row.name)
    try:
        result = row.run(seed=args.seed, duration=args.duration,
                         recorder=recorder, **kwargs)
        if save_path:
            Path(save_path).write_text(
                json.dumps(replay.used(result, loaded), indent=2))
            print(f"{replay.kind}: {save_path}", file=sys.stderr)
    except ValueError as exc:
        error(str(exc))
    if recorder is not None:
        print(f"run artifacts: {recorder.finalize(result)}", file=sys.stderr)
    if args.json:
        out = strip_timings(result, row.timing_keys) if args.strip_timings else result
        print(json.dumps(out, indent=2, default=str))
    else:
        print(row.render(result))
    return 0 if result["ok"] else 1


def _cmd_demo(args, _error) -> int:
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
    duration = args.duration
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
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` / the ``repro`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TopoSense (ICPP 2001) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, duration: Optional[float], seed: Optional[int] = 1):
        default = "none, nothing is simulated" if duration is None else f"{duration:g}"
        p.add_argument("--duration", type=positive_float, default=duration,
                       help=f"simulated seconds (default: {default})")
        seeded = "the one its results file was made with" if seed is None else seed
        p.add_argument("--seed", type=int, default=seed, help=f"(default: {seeded})")
        p.add_argument("--json", action="store_true", help="emit JSON")

    def artifacts(p):
        p.add_argument("--no-artifacts", action="store_true",
                       help="skip writing the run directory under runs/")

    for fig in FIGURES:
        p = sub.add_parser(fig.name, help=fig.help)
        common(p, fig.duration, seed=None)
        p.add_argument("--out", metavar="FILE",
                       help="also write the --json document to FILE")
        if fig.name == "fig9":
            p.add_argument("--plot", action="store_true",
                           help="draw an ASCII timeline instead of a summary")
        p.set_defaults(fn=partial(_cmd_figure, fig))

    for row in EXPERIMENTS:
        p = sub.add_parser(row.name, help=row.help)
        common(p, row.duration)
        for o in row.options:
            default = "" if o.default is None else f" (default {o.default})"
            p.add_argument(o.flag, type=o.type, default=o.default,
                           help=o.help + default)
        if row.replay is not None:
            p.add_argument(f"--{row.replay.kind}", type=str, default=None,
                           help=row.replay.help)
            p.add_argument(f"--save-{row.replay.kind}", type=str, default=None,
                           help=row.replay.save_help)
        p.add_argument("--strip-timings", action="store_true",
                       help="with --json: drop wall-clock fields so two "
                            "same-input runs diff clean")
        artifacts(p)
        p.set_defaults(fn=partial(_cmd_experiment, row))

    demo = sub.add_parser("demo", help="run one scenario and print a summary")
    common(demo, 300.0)
    demo.add_argument("--topology", choices=["a", "b"], default="a")
    demo.add_argument("--receivers", type=int, default=4,
                      help="receivers (topology a) or sessions (topology b)")
    demo.add_argument("--traffic", choices=["cbr", "vbr"], default="cbr")
    demo.add_argument("--peak", type=float, default=3.0, help="VBR peak-to-mean ratio")
    demo.add_argument("--staleness", type=float, default=0.0)
    artifacts(demo)
    demo.set_defaults(fn=_cmd_demo)

    args = parser.parse_args(argv)
    return args.fn(args, sub.choices[args.command].error)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
