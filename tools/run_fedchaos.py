"""Chaos-test the federated control plane and gate its robustness claims.

The default run is exactly ``python -m repro fedchaos --seed 1`` without
run artifacts; this tool adds plan round-tripping and the replay-diff
projection used by CI:

    # the acceptance sweep: loss x partition-window grid, 3 domains
    python tools/run_fedchaos.py --seed 1

    # save the fault plan a single point would use, then replay it
    python tools/run_fedchaos.py --seed 1 --loss 0.2 --windows 3 \\
        --save-plan fedchaos-plan.json
    python tools/run_fedchaos.py --seed 1 --plan fedchaos-plan.json

    # machine-readable output for CI (timings stripped so two
    # same-seed runs diff clean)
    python tools/run_fedchaos.py --seed 1 --json --strip-timings > result.json

Exits non-zero when any gate fails: every shard must apply advice at the
post-failover epoch within ``--recovery-rounds`` of the failover, and
decayed ceilings must never overshoot the same-seed fault-free baseline's
advice.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.faults import FaultPlan  # noqa: E402
from repro.federation.chaos import (  # noqa: E402
    DEFAULT_CHAOS_DURATION,
    default_fedchaos_plan,
    render_fedchaos_report,
    run_fedchaos,
    strip_timings,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=DEFAULT_CHAOS_DURATION)
    parser.add_argument("--cadence", type=float, default=4.0)
    parser.add_argument("--domains", type=int, default=3,
                        help="number of administrative domains (default 3)")
    parser.add_argument("--receivers", type=int, default=8,
                        help="receivers per domain (default 8)")
    parser.add_argument("--loss", type=str, default="0.05,0.2",
                        help="comma-separated channel loss rates")
    parser.add_argument("--windows", type=str, default="3,4",
                        help="comma-separated partition windows, in rounds")
    parser.add_argument("--partition-domain", type=str, default="d2",
                        help="domain cut off during the partition window")
    parser.add_argument("--staleness-budget", type=int, default=2,
                        help="advice age (rounds) tolerated before decay")
    parser.add_argument("--retries", type=int, default=3,
                        help="summary send attempts per round (default 3)")
    parser.add_argument("--recovery-rounds", type=int, default=3,
                        help="rounds allowed for post-failover recovery")
    parser.add_argument("--plan", type=str, default=None,
                        help="JSON fault plan to replay (single point)")
    parser.add_argument("--save-plan", type=str, default=None,
                        help="write the plan that was used to this JSON file "
                             "(needs a single --loss and --windows value)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full result as JSON")
    parser.add_argument("--strip-timings", action="store_true",
                        help="with --json: drop wall-clock fields so two "
                             "same-seed runs diff clean")
    args = parser.parse_args(argv)

    losses = [float(x) for x in args.loss.split(",") if x]
    windows = [int(x) for x in args.windows.split(",") if x]

    if args.plan:
        try:
            with open(args.plan) as fh:
                plan = FaultPlan.from_dicts(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot load fault plan {args.plan!r}: {exc}")
    elif args.save_plan:
        if len(losses) != 1 or len(windows) != 1:
            parser.error("--save-plan needs exactly one --loss and one "
                         "--windows value (a plan encodes a single point)")
        plan = default_fedchaos_plan(
            cadence=args.cadence, loss=losses[0],
            domain=args.partition_domain, partition_rounds=windows[0],
        )
    else:
        plan = None

    if args.save_plan and plan is not None:
        with open(args.save_plan, "w") as fh:
            json.dump(plan.to_dicts(), fh, indent=2)

    try:
        result = run_fedchaos(
            seed=args.seed,
            duration=args.duration,
            cadence=args.cadence,
            n_domains=args.domains,
            receivers_per_domain=args.receivers,
            loss_rates=losses,
            partition_rounds=windows,
            partition_domain=args.partition_domain,
            staleness_budget=args.staleness_budget,
            retry_limit=args.retries,
            recovery_rounds=args.recovery_rounds,
            plan=plan,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        out = strip_timings(result) if args.strip_timings else result
        print(json.dumps(out, indent=2, default=str))
    else:
        print(render_fedchaos_report(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
