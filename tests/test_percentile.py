"""The numpy-free scorers held to numpy, bit for bit.

``workloads/runner.py::percentile`` replaces ``numpy.percentile`` (default
``"linear"`` method) in ``latency_percentiles``, and ``metrics/fairness.py``
replaced its array math with ``pairwise_sum``, so a scored run imports no
numpy.  numpy stays a test dependency so that these oracles can demand equal
results: the same virtual index, the same neighbours and numpy's ``_lerp``,
which switches to ``b - (b - a) * (1 - t)`` for ``t >= 0.5``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.fairness import bandwidth_shares, jain_index
from repro.workloads.runner import latency_percentiles, percentile

#: Finite samples without ``-0.0``: numpy's partition and Python's stable
#: sort may order ``-0.0`` and ``0.0`` differently, which only flips the
#: sign of a zero result.
SAMPLES = st.lists(
    st.floats(-1e12, 1e12, allow_nan=False).map(lambda x: x + 0.0), min_size=1, max_size=300,
)
LATENCIES = st.lists(st.floats(0.0, 1e5), min_size=1, max_size=300)


def bits(x):
    return float(x).hex()


@settings(max_examples=300, deadline=None)
@given(SAMPLES, st.one_of(st.sampled_from([0, 1, 50, 95, 99, 100]), st.floats(0.0, 100.0)))
def test_percentile_equals_numpys_linear_method(samples, q):
    assert bits(percentile(sorted(samples), q)) == bits(np.percentile(samples, q))


@settings(max_examples=200, deadline=None)
@given(LATENCIES)
def test_latency_percentiles_equal_numpys(samples):
    got = latency_percentiles(samples)
    assert [bits(got["p50"]), bits(got["p99"])] == [
        bits(np.percentile(samples, 50)), bits(np.percentile(samples, 99))]
    assert got["n"] == len(samples)


def test_percentile_takes_the_upper_formula_from_half_way():
    # The 37.5th percentile of three samples lies 3/4 of the way from the
    # first to the second, where a + (b - a) * t and b - (b - a) * (1 - t)
    # differ in the last bit: numpy takes the second.
    ordered = [2.3796462709189137, 5.442292252959518, 11.0]
    a, b = ordered[0], ordered[1]
    assert a + (b - a) * 0.75 != b - (b - a) * 0.25
    assert percentile(ordered, 37.5) == b - (b - a) * 0.25 == np.percentile(ordered, 37.5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e9), min_size=1, max_size=300))
def test_fairness_indices_equal_the_numpy_forms(values):
    x = np.asarray(values, dtype=float)
    denom = x.size * float((x**2).sum())
    expected = 1.0 if denom == 0 else float(x.sum()) ** 2 / denom
    assert bits(jain_index(values)) == bits(expected)
    if x.sum() > 0:
        assert [bits(s) for s in bandwidth_shares(values)] == [bits(s) for s in x / x.sum()]
