"""Compare two result files of ``bench/run.py --out``: parent A, change B.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric), judged against the bound that
``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B's median is better by more than the bound *and* by more
  than the spread of A's own runs (the distance between A's quartiles);
* ``unresolved`` — neither, but a side's run-to-run spread is wider than the
  bound, so "unchanged" cannot be told from a change of that size — unless
  every run of B reads better than every run of A, which is ``improved``;
* ``unchanged``  — otherwise.

``failed_frac`` regresses on any increase.  The ``sim_fingerprint`` row reads
``changed`` when the two commits' outputs differ: a behaviour change, for the
change to explain — whether it is for the worse is what the metric rows say.
Exit status is 1 when any row regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

import common


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float, better: str) -> str:
    """Judge one metric from its two summaries (see module docstring)."""
    if not a["n"] or not b["n"]:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
    if worse_by > bound:
        return "regressed"
    a_spread = common.spread(a)
    if -worse_by > bound and -worse_by > a_spread:
        return "improved"
    all_better = (max(b["values"]) < min(a["values"]) if better == "lower"
                  else min(b["values"]) > max(a["values"]))
    if max(a_spread, common.spread(b)) > bound:
        return "improved" if all_better else "unresolved"
    return "unchanged"


def fingerprints(entry: Dict[str, Any]) -> List[str]:
    """The distinct fingerprints of a workload's repetitions (one, unless the
    run reported a PROBLEM)."""
    return sorted({r["sim_fingerprint"]["sha"]
                   for r in entry["repetitions"] if not r.get("crashed")})


def compare(a_doc: Dict[str, Any], b_doc: Dict[str, Any],
            spec: Dict[str, Any]) -> Tuple[List[List[str]], bool]:
    """Rows ``[workload, metric, verdict, detail]`` and whether any regressed."""
    rows: List[List[str]] = []
    regressed = False
    for name in (w["name"] for w in spec["workloads"]):
        a, b = a_doc["workloads"].get(name), b_doc["workloads"].get(name)
        if not a or not b or "end_to_end" not in a or "end_to_end" not in b:
            continue
        for row in spec["end_to_end"]:
            sa, sb = a["end_to_end"][row["name"]], b["end_to_end"][row["name"]]
            v = verdict(sa, sb, row["bound"], row["better"])
            rows.append([name, row["name"], v,
                         f"{_fmt(sa)} -> {_fmt(sb)} {row['unit']} (bound {row['bound']:.0%})"])
            regressed = regressed or v == "regressed"
        v = "regressed" if b["failed_frac"] > a["failed_frac"] else "unchanged"
        rows.append([name, "failed_frac", v,
                     f"{a['failed_frac']:.6g} -> {b['failed_frac']:.6g} (any increase)"])
        regressed = regressed or v == "regressed"
        fa, fb = fingerprints(a), fingerprints(b)
        if fa == fb:
            rows.append([name, "sim_fingerprint", "unchanged", f"byte-equal: {' '.join(fa)}"])
        else:
            rows.append([name, "sim_fingerprint", "changed",
                         f"BEHAVIOUR CHANGE, to be explained: {' '.join(fa)} -> {' '.join(fb)}"])
    return rows, regressed


def _fmt(s: Dict[str, Any]) -> str:
    if not s["n"]:
        return "-"
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="result file of the parent commit")
    parser.add_argument("b", help="result file of the change")
    args = parser.parse_args(argv)
    with open(args.a) as fh:
        a_doc = json.load(fh)
    with open(args.b) as fh:
        b_doc = json.load(fh)
    if a_doc.get("seed") != b_doc.get("seed") or a_doc.get("smoke") != b_doc.get("smoke"):
        sys.stderr.write("compare: the two files were not run with the same --seed/--smoke\n")
        return 2
    rows, regressed = compare(a_doc, b_doc, common.load_spec())
    if not rows:
        sys.stderr.write("compare: the files share no workload with end-to-end results\n")
        return 2
    for workload, metric, v, detail in rows:
        print(f"{workload:<14}{metric:<22}{v:<12}{detail}")
    print("RESULT: " + ("REGRESSED" if regressed else "no regression"))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
