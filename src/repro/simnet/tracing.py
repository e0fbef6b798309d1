"""Trace recording utilities.

Experiments record *traces*: time-stamped level changes (subscription
levels), scalar time series (loss rates, throughput) and event counters.
:class:`StepTrace` is the workhorse — it stores a piecewise-constant signal
and supports the time-weighted statistics that the paper's metrics
(relative deviation, mean time between changes) need.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import List, Optional, Tuple

from .rng import pairwise_sum

__all__ = ["StepTrace", "SeriesTrace"]


class StepTrace:
    """A piecewise-constant signal, e.g. a receiver's subscription level.

    Values hold from their timestamp until the next recorded point.  Recording
    the same value twice in a row is a no-op (the trace stores only *changes*),
    so ``len(trace) - 1`` is the number of changes after the initial value.
    """

    __slots__ = ("times", "values")

    def __init__(self, t0: float = 0.0, v0: float = 0.0):
        self.times: List[float] = [t0]
        self.values: List[float] = [v0]

    def record(self, t: float, value: float) -> None:
        """Record that the signal takes ``value`` from time ``t`` onward."""
        if t < self.times[-1]:
            raise ValueError(f"trace times must be non-decreasing ({t} < {self.times[-1]})")
        if value == self.values[-1]:
            return
        if t == self.times[-1]:
            # Same-instant overwrite: replace rather than duplicate.
            self.values[-1] = value
            if len(self.values) >= 2 and self.values[-2] == value:
                self.times.pop()
                self.values.pop()
            return
        self.times.append(t)
        self.values.append(value)

    # ------------------------------------------------------------------
    def value_at(self, t: float) -> float:
        """Signal value at time ``t`` (the value most recently recorded)."""
        i = bisect_right(self.times, t) - 1
        if i < 0:
            raise ValueError(f"t={t} precedes trace start {self.times[0]}")
        return self.values[i]

    def change_times(self, t0: float = 0.0, t1: float = float("inf")) -> List[float]:
        """Times of value changes within ``(t0, t1]`` (initial point excluded)."""
        return [t for t in self.times[1:] if t0 < t <= t1]

    def num_changes(self, t0: float = 0.0, t1: float = float("inf")) -> int:
        """Number of value changes within ``(t0, t1]``."""
        return len(self.change_times(t0, t1))

    def mean_time_between_changes(
        self, t0: float = 0.0, t1: Optional[float] = None
    ) -> float:
        """Mean gap between successive changes in ``[t0, t1]``.

        With fewer than two changes the whole window length is returned
        (the signal is "stable for the entire window"), matching how the
        paper plots Topology A/B stability.
        """
        if t1 is None:
            t1 = self.times[-1]
        changes = self.change_times(t0, t1)
        if len(changes) < 2:
            return t1 - t0
        diffs = [b - a for a, b in zip(changes, changes[1:])]
        return pairwise_sum(diffs) / len(diffs)

    def time_weighted_mean(self, t0: float, t1: float) -> float:
        """Average of the signal over ``[t0, t1]``, weighted by holding time."""
        if t1 <= t0:
            raise ValueError("need t1 > t0")
        total = 0.0
        for seg_t0, seg_t1, v in self.segments(t0, t1):
            total += v * (seg_t1 - seg_t0)
        return total / (t1 - t0)

    def segments(self, t0: float, t1: float):
        """Yield ``(start, end, value)`` pieces covering ``[t0, t1]``."""
        times, values = self.times, self.values
        i = max(bisect_right(times, t0) - 1, 0)
        while i < len(times):
            seg_start = max(times[i], t0)
            seg_end = times[i + 1] if i + 1 < len(times) else t1
            seg_end = min(seg_end, t1)
            if seg_end > seg_start:
                yield seg_start, seg_end, values[i]
            if seg_end >= t1:
                break
            i += 1

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StepTrace {len(self.times)} points, last={self.values[-1]} @ {self.times[-1]:.1f}s>"


class SeriesTrace:
    """An append-only ``(time, value)`` sample series (e.g. loss rates).

    A receiver appends one sample per report for the whole run, so the
    series is stored compactly.  Values are one unboxed ``array('d')``.
    Times are runs ``(start, step, count)``, flat in another ``array('d')``:
    a time that is exactly the previous time plus the run's step extends the
    run and costs nothing, and any other time opens a new run.  Reports come
    from one periodic chain, so a receiver's series is usually a single run.
    :attr:`times` replays each run's additions, so it returns the recorded
    floats bit for bit.
    """

    __slots__ = ("values", "_runs", "_last")

    def __init__(self) -> None:
        self.values = array("d")
        self._runs = array("d")
        self._last = 0.0  # the latest time recorded (meaningless while empty)

    def record(self, t: float, value: float) -> None:
        """Append a sample (times must be non-decreasing)."""
        runs = self._runs
        if not runs:
            runs.extend((t, 0.0, 1.0))
        else:
            last = self._last
            if t < last:
                raise ValueError("series times must be non-decreasing")
            count = runs[-1]
            if count == 1.0 and last + (t - last) == t:
                runs[-2] = t - last
                runs[-1] = 2.0
            elif count > 1.0 and last + runs[-2] == t:
                runs[-1] = count + 1.0
            else:
                runs.extend((t, 0.0, 1.0))
        self._last = t
        self.values.append(value)

    @property
    def times(self) -> "array[float]":
        """Every sample time, in order (a new array on each read)."""
        out = array("d")
        runs = self._runs
        for i in range(0, len(runs), 3):
            t, step = runs[i], runs[i + 1]
            out.append(t)
            for _ in range(int(runs[i + 2]) - 1):
                t += step
                out.append(t)
        return out

    def window(self, t0: float, t1: float) -> Tuple[List[float], List[float]]:
        """Samples with ``t0 <= t <= t1`` as a pair of lists."""
        times = self.times
        keep = [i for i, t in enumerate(times) if t0 <= t <= t1]
        return [times[i] for i in keep], [self.values[i] for i in keep]

    def mean(self, t0: float = 0.0, t1: float = float("inf")) -> float:
        """Unweighted mean of samples in the window (nan if empty)."""
        _, v = self.window(t0, t1)
        return pairwise_sum(v) / len(v) if v else float("nan")

    def __len__(self) -> int:
        return len(self.values)
