"""``benchmarks/conftest.py`` only rewrites the committed results at the
horizon they were made at (``benchmarks/`` is outside ``testpaths``, so the
module is loaded by path)."""

import importlib.util
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture
def bench_conftest():
    spec = importlib.util.spec_from_file_location("benchmarks_conftest", CONFTEST)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_default_horizon_targets_committed_results(bench_conftest, monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_DURATION", raising=False)
    monkeypatch.delenv("REPRO_FULL", raising=False)
    assert bench_conftest.results_dir(tmp_path) == CONFTEST.parent / "results"


@pytest.mark.parametrize("var,value", [("REPRO_DURATION", "20"), ("REPRO_FULL", "1")])
def test_other_horizon_leaves_committed_results_alone(
    bench_conftest, monkeypatch, tmp_path, var, value
):
    monkeypatch.delenv("REPRO_DURATION", raising=False)
    monkeypatch.delenv("REPRO_FULL", raising=False)
    monkeypatch.setenv(var, value)
    written = []

    def spy_open(path, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            written.append(Path(path).resolve())
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(bench_conftest, "open", spy_open, raising=False)
    path = bench_conftest.write_rows("fig9", [{"t": 0.0}], tmp_path)
    assert path == tmp_path / "fig9.json" and path.is_file()
    assert written == [path.resolve()]
    assert bench_conftest.RESULTS_DIR.resolve() not in written[0].parents
