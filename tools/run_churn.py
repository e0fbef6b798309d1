"""Replay a churn plan against every tree-builder backend, deterministically.

The default run is exactly ``python -m repro churn --seed 1``; this tool adds
plan round-tripping for churn-as-regression-test workflows:

    # run the canonical churn sweep and save the plan it used
    python tools/run_churn.py --seed 1 --save-plan churn.json

    # replay the saved plan (bit-identical result for the same seed)
    python tools/run_churn.py --seed 1 --plan churn.json

    # machine-readable output for CI
    python tools/run_churn.py --seed 1 --json > result.json

Exits non-zero when any backend misses the recovery bound, when the
protected backend never repairs locally, or when one of its local patches
disturbs more tree edges than SPT's full rebuild of the same group at the
same instant — so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.churn import (  # noqa: E402
    DEFAULT_DURATION,
    churn_receiver_ids,
    default_churn_plan,
    render_churn_report,
    run_churn,
)
from repro.faults import FaultPlan  # noqa: E402
from repro.multicast import BUILDER_NAMES  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=DEFAULT_DURATION)
    parser.add_argument("--receivers", type=int, default=6)
    parser.add_argument("--backends", type=str, default=",".join(BUILDER_NAMES),
                        help="comma-separated backend names (default: all)")
    parser.add_argument("--plan", type=str, default=None,
                        help="JSON fault plan to replay (default: canonical churn)")
    parser.add_argument("--save-plan", type=str, default=None,
                        help="write the plan that was used to this JSON file")
    parser.add_argument("--recover-intervals", type=float, default=4.0)
    parser.add_argument("--json", action="store_true", help="emit the full result as JSON")
    args = parser.parse_args(argv)

    if args.plan:
        try:
            with open(args.plan) as fh:
                plan = FaultPlan.from_dicts(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot load fault plan {args.plan!r}: {exc}")
    else:
        plan = default_churn_plan(
            churn_receiver_ids(args.receivers), duration=args.duration, seed=args.seed
        )

    if args.save_plan:
        with open(args.save_plan, "w") as fh:
            json.dump(plan.to_dicts(), fh, indent=2)

    result = run_churn(
        seed=args.seed,
        duration=args.duration,
        n_receivers=args.receivers,
        backends=[b.strip() for b in args.backends.split(",") if b.strip()],
        plan=plan,
        recover_intervals=args.recover_intervals,
    )
    if args.json:
        print(json.dumps(result, indent=2, default=str))
    else:
        print(render_churn_report(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
