"""The scripts under ``examples/`` run, unchanged, to their summary line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Script -> the start of the last line it prints.
LAST_LINE = {
    "quickstart.py": "relative deviation from optimal (after 30s warmup): ",
    "heterogeneous_receivers.py": "intra-class fairness (Jain): A=",
    "competing_sessions.py": "  0s->1, ",
}


def test_every_example_is_run():
    assert sorted(p.name for p in (ROOT / "examples").glob("*.py")) == sorted(LAST_LINE)


@pytest.mark.parametrize("script", sorted(LAST_LINE))
def test_example_runs_to_its_summary(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "examples" / script)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith(LAST_LINE[script]), done.stdout
