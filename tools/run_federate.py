"""Sweep domain count at fixed total receivers through the federated
control plane, and gate its scaling claims for CI.

The default run is exactly ``python -m repro federate --seed 1`` without
run artifacts:

    # the acceptance sweep: 1024 receivers across 2/4/8 domains
    python tools/run_federate.py --seed 1

    # machine-readable output for CI
    python tools/run_federate.py --seed 1 --receivers 48 --domains 2,4 \\
        --json > result.json

Exits non-zero when any gate fails: control bytes per receiver must stay
flat (within ``--tolerance``) as domains are added, the coordinator's
summary store must stay bounded by domains x sessions (and it must never
have been offered a per-receiver report), and every domain must converge
near its oracle optimum.

Replaying the same seed and arguments reproduces ``result.json`` exactly,
except for the ``wall_s`` / ``shard_wall_ms`` timing fields — strip those
to diff runs (see the CI workflow).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.federation.experiment import (  # noqa: E402
    DEFAULT_DURATION,
    render_federate_report,
    run_federate,
    strip_timings,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=DEFAULT_DURATION)
    parser.add_argument("--receivers", type=int, default=1024,
                        help="total receivers, split evenly (default 1024)")
    parser.add_argument("--domains", type=str, default="2,4,8",
                        help="comma-separated domain counts (default 2,4,8)")
    parser.add_argument("--cadence", type=float, default=4.0)
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed control-B/receiver spread (default 0.15)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full result as JSON")
    parser.add_argument("--strip-timings", action="store_true",
                        help="with --json: drop wall-clock fields so two "
                             "same-seed runs diff clean")
    args = parser.parse_args(argv)

    try:
        result = run_federate(
            seed=args.seed,
            duration=args.duration,
            total_receivers=args.receivers,
            domain_counts=[int(n) for n in args.domains.split(",") if n],
            cadence=args.cadence,
            tolerance=args.tolerance,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        out = strip_timings(result) if args.strip_timings else result
        print(json.dumps(out, indent=2, default=str))
    else:
        print(render_federate_report(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
