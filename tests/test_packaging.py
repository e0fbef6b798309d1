"""What a fresh interpreter sees: import order and runtime dependencies.

Every other test runs in a process that has already imported most of
``repro`` (and networkx, which the test suite uses as an oracle), so two
properties can only be checked from outside:

* each module imports cleanly as the *first* ``repro`` import of a process —
  a cycle between two modules is otherwise masked by whichever of them the
  process happened to import first;
* a run imports only the layers it runs: packages re-export nothing, so a
  Topology B run never loads the fault, workload or artifact machinery;
* a real run never imports networkx: it is a test dependency only
  (``pyproject.toml``), and ``Network`` searches its own adjacency;
* a simulation never imports numpy: its streams are ``Pcg64`` (every draw,
  ``exponential``, sampling without replacement and ``shuffle`` included),
  its means ``pairwise_sum`` and its percentiles ``percentile``; numpy is a
  test dependency only.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
BENCH = SRC.parent / "bench"

SUBPACKAGES = sorted(m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg)

MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in (SRC / "repro").rglob("*.py") if path.name != "__main__.py"
)


def run_fresh(code):
    """Run ``code`` in a new interpreter that finds ``repro`` and nothing
    this process has imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", SUBPACKAGES + ["workloads.runner", "cli"])
def test_imports_cleanly_as_the_first_import_of_a_process(name):
    done = run_fresh(f"import repro.{name}")
    assert done.returncode == 0, done.stderr


def test_every_module_imports_cleanly_as_the_first_repro_import():
    done = run_fresh(f"""
import importlib, sys
for name in {MODULES!r}:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    importlib.import_module(name)
""")
    assert done.returncode == 0, done.stderr


def test_a_topology_b_run_imports_only_the_layers_it_runs():
    done = run_fresh("""
import sys
from repro.experiments.topologies import build_topology_b

build_topology_b(n_sessions=2, seed=1).run(5.0)
unused = ("repro.faults", "repro.workloads", "repro.obs.run", "repro.experiments.crowd",
          "repro.metrics.ascii_plot", "subprocess")
assert not [m for m in unused if m in sys.modules], [m for m in unused if m in sys.modules]
""")
    assert done.returncode == 0, done.stderr


def test_a_real_run_never_imports_networkx():
    done = run_fresh("""
import contextlib, io, sys
from repro.cli import main
from repro.experiments.topologies import build_topology_a
from repro.faults.plan import FaultPlan

with contextlib.redirect_stdout(io.StringIO()) as out:
    assert main(["fig6", "--json", "--duration", "4"]) == 0
assert out.getvalue().lstrip().startswith(("{", "["))

sc = build_topology_a(n_receivers=2, seed=1)
FaultPlan().link_flap(2.0, "core", "agg_a", down_for=1.0, times=2).apply(sc)
sc.run(8.0)
assert sc.network.topology_epoch > 0

assert "networkx" not in sys.modules, "networkx imported at run time"
""")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("code", [
    # pkt_steady's run, scored
    "from repro.experiments.topologies import build_topology_b\n"
    "sc = build_topology_b(n_sessions=4, traffic='vbr', peak_to_mean=3.0, seed=1)\n"
    "sc.run(10.0).mean_deviation(5.0)\n",
    # the benchmark's constructions (join_ramp at full size: its smoke
    # horizon is too short for the diurnal tail that draws exponentials)
    *(f"sys.path.insert(0, {str(BENCH)!r})\n"
      "from workloads import WORKLOADS\n"
      f"WORKLOADS[{name!r}].instantiate(1, smoke={smoke})\n"
      for name, smoke in (("join_ramp", False), ("churn_repair", True), ("fed_crowd", True))),
    "from repro.experiments.tiered import build_tiered_topology\n"
    "build_tiered_topology(seed=3, receiver_fraction=0.5).run(5.0)\n",
    "import contextlib, io\n"
    "from repro.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(['demo', '--topology', 'b', '--duration', '10', '--no-artifacts']) == 0\n",
    # a scored crowd run: join latency percentiles included
    "import contextlib, io\n"
    "from repro.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(['crowd', '--seed', '2', '--duration', '40', '--sizes', '12',\n"
    "                 '--loss', '0,0.25', '--edges', '3', '--incumbents', '2',\n"
    "                 '--federated-crowd', '6', '--no-artifacts']) == 0\n",
], ids=["topology_b_run", "join_ramp_build", "churn_repair_build", "fed_crowd_build",
        "tiered_run", "demo", "crowd"])
def test_a_simulation_never_imports_numpy(code):
    done = run_fresh("import sys\n" + code
                     + "assert 'numpy' not in sys.modules, 'numpy imported'\n")
    assert done.returncode == 0, done.stderr
