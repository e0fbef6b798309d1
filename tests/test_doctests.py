"""The ``>>>`` examples in ``src/repro`` docstrings run as tests.

Every module whose source carries an example is collected, so an example
added later is checked without being listed here.
"""

import doctest
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts)
    for path in (SRC / "repro").rglob("*.py")
    if ">>>" in path.read_text()
)


def test_the_examples_are_found():
    assert {"repro.simnet.topology", "repro.simnet.engine", "repro.simnet.rng",
            "repro.metrics.ascii_plot"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0 and result.failed == 0, result
