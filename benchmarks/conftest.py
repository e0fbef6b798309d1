"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables/figures and records its
rows under ``benchmarks/results/`` so EXPERIMENTS.md can cite actual numbers.

Horizons: benchmarks default to 200 simulated seconds per run (the dynamics
have a ~60 s warmup and are periodic after that).  ``REPRO_FULL=1`` runs the
paper's full 1200 s; ``REPRO_DURATION=<s>`` picks anything else.  The
committed ``results/*.json`` were made at the default horizon, so only a
default-horizon run rewrites them; any other writes to pytest's ``tmp_path``.
"""

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_duration(fallback: float = 200.0) -> float:
    """Simulated seconds per run (see module docstring)."""
    if os.environ.get("REPRO_FULL"):
        return 1200.0
    env = os.environ.get("REPRO_DURATION")
    return float(env) if env else fallback


def results_dir(scratch: Path) -> Path:
    """Where a run's rows go: the committed ``results/`` at the horizon its
    files were made at (neither variable set), ``scratch`` at any other."""
    if os.environ.get("REPRO_FULL") or os.environ.get("REPRO_DURATION"):
        return scratch
    return RESULTS_DIR


def write_rows(name: str, rows, scratch: Path) -> Path:
    """Write ``rows`` as ``<name>.json`` under :func:`results_dir`; return the path."""
    dest = results_dir(scratch)
    dest.mkdir(exist_ok=True)
    path = dest / f"{name}.json"
    with open(path, "w") as f:
        json.dump(rows, f, indent=2, default=str)
    return path


@pytest.fixture
def record_rows(tmp_path, capsys):
    """Persist a benchmark's result rows as JSON for EXPERIMENTS.md."""

    def _record(name: str, rows) -> None:
        path = write_rows(name, rows, tmp_path)
        if path.parent != RESULTS_DIR:
            with capsys.disabled():
                print(f"\n{name}: not the committed horizon, rows written to {path}")

    return _record
