"""Goldens: the exact ``--json`` output of every figure row at a short
horizon and of every experiment row at its small arguments, byte for byte.

A change that moves a number here shows the diff in review.  When the move is
intended, the failure message prints the command that rewrites the golden.
"""

from pathlib import Path

import pytest
from test_cli import first_small_json_run, small_json_argv

from repro.cli import EXPERIMENTS, FIGURES, main

GOLDENS = Path(__file__).resolve().parent / "goldens"


def assert_golden(name, argv, out):
    regen = f"PYTHONPATH=src python -m repro {' '.join(argv)} > tests/goldens/{name}.json"
    path = GOLDENS / f"{name}.json"
    assert path.exists(), f"no golden for {name}; write it with: {regen}"
    assert out == path.read_text(), f"{name} moved; if that is intended: {regen}"


@pytest.mark.parametrize("row", FIGURES, ids=lambda row: row.name)
def test_figure_row_matches_golden(row, capsys):
    argv = [row.name, "--duration", "30", "--json"]
    main(argv)  # the exit code is the gate's; a 30 s horizon fails some
    assert_golden(row.name, argv, capsys.readouterr().out)


@pytest.mark.parametrize("row", EXPERIMENTS, ids=lambda row: row.name)
def test_experiment_row_matches_golden(row, capsys):
    _rc, out = first_small_json_run(row, capsys)
    assert_golden(row.name, small_json_argv(row), out)
