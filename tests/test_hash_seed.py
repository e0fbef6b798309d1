"""Output does not depend on ``PYTHONHASHSEED``.

String hashing is salted per interpreter, so anything that walks a ``set``
of node names can visit them in a different order on the next run.  Where
that order reaches the simulation — which child link a multicast packet is
copied onto first, when two links draw from one stream — a replay with the
same seed stops being a replay.  This test runs a few cheap figure rows and
the small runs of four experiments in two interpreters with different hash
salts and requires byte-equal output.
"""

import os
import subprocess
import sys
from pathlib import Path

from test_cli import SMALL

SRC = Path(__file__).resolve().parent.parent / "src"

#: Cheap rows that fan packets out over several child links per node:
#: four VBR sessions on topology B, RED queues (links with a drop stream),
#: a tiered ISP topology, and churn over all three tree builders.  With one
#: stream shared by both RED queues and the fan-out walking a set of names,
#: ``ablation_red`` differs between these two salts from about 60 s on.
#: The other experiments reach state no earlier row does: ``byzantine``
#: quarantines liars into the set ``GroupState.blocked``, ``crowd`` joins
#: co-located receivers through ``GroupState.refcount``, and ``federate``
#: drives the shard controllers' domain node sets and the coordinator's
#: ``_latest`` map.  Each runs with its small arguments from ``test_cli``.
RUNS = (
    ["fig7", "--duration", "30", "--json"],
    ["ablation_red", "--duration", "60", "--json"],
    ["hierarchy_tiered", "--duration", "30", "--json"],
    *([name, *SMALL[name][0], "--no-artifacts", "--json", "--strip-timings"]
      for name in ("churn", "byzantine", "crowd", "federate")),
)

_SCRIPT = """
import contextlib, io, sys
from repro.cli import main
for argv in {runs!r}:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    sys.stdout.write("== " + " ".join(argv) + "\\n" + buf.getvalue())
"""


def _run(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(runs=RUNS)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_output_is_the_same_under_two_hash_seeds():
    first = _run(0)
    assert first.count("== ") == len(RUNS)
    assert _run(1) == first
