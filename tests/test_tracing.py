"""Unit tests for StepTrace and SeriesTrace."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.rng import pairwise_sum
from repro.simnet.tracing import SeriesTrace, StepTrace


class TestStepTrace:
    def test_initial_value(self):
        t = StepTrace(t0=0.0, v0=2)
        assert t.value_at(0.0) == 2
        assert t.value_at(100.0) == 2

    def test_record_and_lookup(self):
        t = StepTrace(0.0, 1)
        t.record(10.0, 2)
        t.record(20.0, 3)
        assert t.value_at(5.0) == 1
        assert t.value_at(10.0) == 2
        assert t.value_at(15.0) == 2
        assert t.value_at(25.0) == 3

    def test_duplicate_value_not_stored(self):
        t = StepTrace(0.0, 1)
        t.record(5.0, 1)
        assert len(t) == 1

    def test_same_instant_overwrite(self):
        t = StepTrace(0.0, 1)
        t.record(5.0, 2)
        t.record(5.0, 3)
        assert t.value_at(5.0) == 3
        assert len(t) == 2

    def test_same_instant_overwrite_collapses_to_previous(self):
        t = StepTrace(0.0, 1)
        t.record(5.0, 2)
        t.record(5.0, 1)  # back to original value -> change disappears
        assert len(t) == 1
        assert t.value_at(10.0) == 1

    def test_same_instant_overwrite_chain_keeps_final_value(self):
        # Regression: a burst of same-instant overwrites (e.g. several
        # add_layer calls in one control action) must leave exactly one
        # point carrying the last value, never adjacent duplicates.
        t = StepTrace(0.0, 1)
        for v in (2, 3, 4, 2):
            t.record(5.0, v)
        assert len(t) == 2
        assert t.value_at(5.0) == 2
        assert t.values == [1, 2]

    def test_same_instant_collapse_then_new_change(self):
        t = StepTrace(0.0, 1)
        t.record(5.0, 3)
        t.record(5.0, 1)  # collapsed away
        t.record(7.0, 2)  # recording must continue cleanly after collapse
        assert t.times == [0.0, 7.0]
        assert t.values == [1, 2]
        assert t.num_changes() == 1

    def test_no_adjacent_duplicate_values_ever(self):
        t = StepTrace(0.0, 0)
        for step, (at, v) in enumerate(
            [(1.0, 1), (1.0, 0), (2.0, 2), (2.0, 2), (3.0, 2), (4.0, 3)]
        ):
            t.record(at, v)
            pairs = list(zip(t.values, t.values[1:]))
            assert all(a != b for a, b in pairs), (step, t.values)

    def test_non_monotonic_rejected(self):
        t = StepTrace(0.0, 1)
        t.record(5.0, 2)
        with pytest.raises(ValueError):
            t.record(4.0, 3)

    def test_lookup_before_start_rejected(self):
        t = StepTrace(1.0, 0)
        with pytest.raises(ValueError):
            t.value_at(0.5)

    def test_num_changes_window(self):
        t = StepTrace(0.0, 0)
        for i, time in enumerate([10.0, 20.0, 30.0], start=1):
            t.record(time, i)
        assert t.num_changes() == 3
        assert t.num_changes(15.0, 25.0) == 1
        assert t.num_changes(0.0, 9.0) == 0

    def test_mean_time_between_changes(self):
        t = StepTrace(0.0, 0)
        t.record(10.0, 1)
        t.record(30.0, 2)
        t.record(40.0, 3)
        # gaps: 20, 10 -> mean 15
        assert t.mean_time_between_changes(0.0, 100.0) == pytest.approx(15.0)

    def test_mean_time_between_changes_stable_signal(self):
        t = StepTrace(0.0, 4)
        assert t.mean_time_between_changes(0.0, 1200.0) == pytest.approx(1200.0)

    def test_time_weighted_mean(self):
        t = StepTrace(0.0, 0)
        t.record(5.0, 10)
        # [0,5) at 0, [5,10) at 10 -> mean 5
        assert t.time_weighted_mean(0.0, 10.0) == pytest.approx(5.0)

    def test_time_weighted_mean_partial_window(self):
        t = StepTrace(0.0, 2)
        t.record(10.0, 4)
        assert t.time_weighted_mean(5.0, 15.0) == pytest.approx(3.0)

    def test_time_weighted_mean_invalid_window(self):
        t = StepTrace(0.0, 1)
        with pytest.raises(ValueError):
            t.time_weighted_mean(5.0, 5.0)

    def test_segments_cover_window(self):
        t = StepTrace(0.0, 1)
        t.record(10.0, 2)
        t.record(20.0, 3)
        segs = list(t.segments(5.0, 25.0))
        assert segs == [(5.0, 10.0, 1), (10.0, 20.0, 2), (20.0, 25.0, 3)]
        total = sum(b - a for a, b, _ in segs)
        assert total == pytest.approx(20.0)

    def test_segments_window_inside_one_piece(self):
        t = StepTrace(0.0, 7)
        segs = list(t.segments(3.0, 4.0))
        assert segs == [(3.0, 4.0, 7)]


class TestSeriesTrace:
    def test_record_and_window(self):
        s = SeriesTrace()
        for i in range(5):
            s.record(float(i), i * 0.1)
        t, v = s.window(1.0, 3.0)
        assert list(t) == [1.0, 2.0, 3.0]
        assert v == pytest.approx([0.1, 0.2, 0.3])

    def test_mean(self):
        s = SeriesTrace()
        s.record(0.0, 1.0)
        s.record(1.0, 3.0)
        assert s.mean() == pytest.approx(2.0)
        assert s.mean(0.5, 2.0) == pytest.approx(3.0)

    def test_mean_empty_is_nan(self):
        import math

        assert math.isnan(SeriesTrace().mean())

    def test_non_monotonic_rejected(self):
        s = SeriesTrace()
        s.record(5.0, 1.0)
        with pytest.raises(ValueError):
            s.record(4.0, 1.0)

    def test_len(self):
        s = SeriesTrace()
        assert len(s) == 0
        s.record(0.0, 0.0)
        assert len(s) == 1


# ----------------------------------------------------------------------
# SeriesTrace oracle: run-length times against plain lists
# ----------------------------------------------------------------------
class _ListSeries:
    """The series as two plain lists: what ``SeriesTrace`` must answer."""

    def __init__(self):
        self.times, self.values = [], []

    def record(self, t, value):
        if self.times and t < self.times[-1]:
            raise ValueError("series times must be non-decreasing")
        self.times.append(t)
        self.values.append(value)

    def window(self, t0, t1):
        keep = [i for i, t in enumerate(self.times) if t0 <= t <= t1]
        return [self.times[i] for i in keep], [self.values[i] for i in keep]

    def mean(self, t0=0.0, t1=float("inf")):
        _, v = self.window(t0, t1)
        return pairwise_sum(v) / len(v) if v else float("nan")


#: How the next times follow the previous one: a periodic chain (each time
#: the previous plus the step, as ``Scheduler.every`` books them), one
#: arbitrary gap, repeats of the same time, or a step back (an error).
SEGMENTS = st.one_of(
    st.tuples(st.just("every"), st.sampled_from([0.1, 0.5, 2.0, 2.2]) | st.floats(1e-9, 50.0),
              st.integers(1, 40)),
    st.tuples(st.just("gap"), st.floats(0.0, 1e4), st.just(1)),
    st.tuples(st.just("repeat"), st.just(0.0), st.integers(1, 4)),
    st.tuples(st.just("back"), st.floats(1e-6, 10.0), st.just(1)),
)


def _bits(xs):
    return array("d", xs).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e5), st.lists(SEGMENTS, max_size=12),
       st.lists(st.tuples(st.floats(-10.0, 2e5), st.floats(0.0, 2e5)), max_size=4))
def test_series_trace_matches_a_plain_list_reference(start, segments, windows):
    series, ref = SeriesTrace(), _ListSeries()
    t, k = start, 0
    for kind, step, count in segments:
        for _ in range(count):
            if kind == "every" and ref.times:
                t = t + step
            elif kind == "gap":
                t = t + step
            elif kind == "back" and ref.times:
                with pytest.raises(ValueError):
                    series.record(ref.times[-1] - step, 1.0)
                continue
            value = (k % 7) / 7.0
            k += 1
            series.record(t, value)
            ref.record(t, value)
    assert len(series) == len(ref.times)
    assert _bits(series.times) == _bits(ref.times)
    assert _bits(series.values) == _bits(ref.values)
    for a, b in windows + [(0.0, float("inf"))]:
        got_t, got_v = series.window(a, b)
        want_t, want_v = ref.window(a, b)
        assert (_bits(got_t), _bits(got_v)) == (_bits(want_t), _bits(want_v))
        got, want = series.mean(a, b), ref.mean(a, b)
        assert got == want or (got != got and want != want)  # both nan


def test_a_periodic_series_is_stored_as_one_run():
    s = SeriesTrace()
    t = 0.37
    for i in range(200):
        s.record(t, i / 200)
        t += 2.0
    assert len(s) == 200
    assert len(s._runs) == 3  # (start, step, count)
