"""Shared by the harness's entry points: paths, BENCHMARK.json, statistics."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def use_checkout_src() -> None:
    """Measure the program of *this* checkout: put its ``src/`` first on
    ``sys.path``, ahead of any installed copy.  Exits with code 2 when the
    checkout has no program to measure."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program to measure: {src / 'repro'} is missing\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def load_spec() -> Dict[str, Any]:
    """The benchmark contract, ``BENCHMARK.json`` at the checkout root."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def summarise(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and sample count."""
    values = list(values)
    if not values:
        return {"n": 0, "median": None, "q1": None, "q3": None, "values": []}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "values": values}


def spread(summary: Dict[str, Any]) -> float:
    """Inter-quartile distance as a share of the median (0 when undefined)."""
    if not summary["n"] or not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])
