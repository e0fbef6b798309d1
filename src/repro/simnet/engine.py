"""Discrete-event simulation engine.

The engine is a classic calendar queue built on a binary heap.  A heap entry
is a plain list ``[time, seq, fn, args]`` — one allocation per scheduled
callback — so ``heapq`` orders entries with the C list comparison and never
calls back into Python.  The monotonically increasing sequence number is
unique: the comparison never reaches ``fn``, and the pop order is
deterministic when several events share a timestamp, which in turn makes
whole simulations reproducible from a seed.  :meth:`Scheduler.at` returns the
entry it pushed; the holder treats it as an opaque handle and passes it back
to :meth:`Scheduler.cancel`.

This module is the innermost loop of the simulator — every packet
transmission, arrival, timer and control decision passes through
:meth:`Scheduler.run`, which unpacks each popped entry and does no
bookkeeping other than heap maintenance.

**All scheduling goes through** :meth:`Scheduler.at`.  :meth:`Scheduler.after`
and :meth:`Scheduler.every` delegate to it, hot call sites call it directly
with ``sched.now + delay``, and nothing else pushes onto the heap: ``at`` is
the one place a harness can wrap (``bench/tracing.py`` does, at class level)
or a subclass can override to see every callback.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, List, Optional

__all__ = ["Scheduler", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


_INF = float("inf")


class Scheduler:
    """Deterministic discrete-event scheduler.

    Example
    -------
    >>> sched = Scheduler()
    >>> hits = []
    >>> _ = sched.after(1.0, hits.append, "a")
    >>> _ = sched.after(0.5, hits.append, "b")
    >>> sched.run(until=2.0)
    >>> hits
    ['b', 'a']
    >>> sched.now
    2.0
    """

    def __init__(self) -> None:
        self._heap: List[List[Any]] = []
        self._seq = 0
        #: Current simulated time in seconds.  A plain attribute because it
        #: is read on every packet hop; **read-only** for everyone but the
        #: scheduler itself.
        self.now = 0.0
        self.events_processed = 0
        #: Optional :class:`~repro.obs.bus.EventBus`.  Components reach the
        #: bus through their scheduler reference, so attaching observability
        #: to a whole simulation is one assignment.  ``None`` (the default)
        #: keeps every emit site to a single attribute check.
        self.bus = None
        #: Optional :class:`~repro.obs.profile.Profiler`; when set,
        #: :meth:`run` charges its wall time to the ``"sched.run"`` span.
        self.profiler = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events in the heap (including lazily-cancelled ones)."""
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if the heap is empty."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> List[Any]:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        if not self.now <= time < _INF:  # one test on the fast path; NaN fails it
            if time < self.now:
                raise SimulationError(
                    f"cannot schedule at t={time} before current time t={self.now}"
                )
            raise SimulationError(f"event time must be finite, got {time!r}")
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, fn, args]
        heappush(self._heap, entry)
        return entry

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> List[Any]:
        """Schedule ``fn(*args)`` ``delay`` seconds from now (``delay >= 0``)."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.at(self.now + delay, fn, *args)

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
    ) -> List[Any]:
        """Schedule ``fn(*args)`` periodically every ``interval`` seconds.

        The returned entry is the *first* occurrence only:
        cancelling it before it fires means the chain never starts, and it is
        a dead handle afterwards.  A running chain ends when ``fn`` returns a
        truthy value or raises ``StopIteration``; there is no other way to
        stop it from outside.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        tick = _Periodic(self, interval, fn)
        return self.at(self.now + interval if start is None else start, tick, *args)

    @staticmethod
    def cancel(entry: List[Any]) -> None:
        """Prevent the entry :meth:`at` returned from firing.  Idempotent.

        The entry stays in the heap and is skipped when popped (lazy
        deletion), which is O(1) instead of the O(n) cost of removing an
        arbitrary heap element."""
        entry[2] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Process events in timestamp order until simulated time ``until``.

        On return, :attr:`now` equals ``until`` even if the heap drained
        earlier.  Events scheduled exactly at ``until`` are executed.
        """
        if until < self.now:
            raise SimulationError(f"cannot run backwards to t={until} from t={self.now}")
        heap = self._heap
        pop = heappop
        # Hoisted observability state: the per-event cost of an unobserved
        # run stays at zero extra work, and a bus without a dispatch
        # subscriber costs one boolean test per event.  Subscribing to
        # ``sched.dispatch`` mid-run takes effect on the next run() call.
        bus = self.bus
        dispatch = bus is not None and bus.wants("sched.dispatch")
        prof = self.profiler
        if prof is not None:
            wall0 = perf_counter()
        while heap:
            if heap[0][0] > until:
                break
            time, seq, fn, args = pop(heap)
            if fn is None:  # cancelled
                continue
            self.now = time
            self.events_processed += 1
            if dispatch:
                bus.emit(
                    "sched.dispatch", time, seq=seq,
                    fn=getattr(fn, "__qualname__", type(fn).__qualname__),
                )
            fn(*args)
        self.now = until
        if prof is not None:
            prof.add("sched.run", perf_counter() - wall0)

    def step(self) -> bool:
        """Execute the single next live event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            time, _seq, fn, args = heappop(heap)
            if fn is None:  # cancelled
                continue
            self.now = time
            self.events_processed += 1
            fn(*args)
            return True
        return False


class _Periodic:
    """One :meth:`Scheduler.every` chain: each call runs ``fn(*args)`` and,
    unless ``fn`` asks to stop, books the next call ``interval`` later.

    An object rather than a closure: a closure that reschedules itself
    refers to itself through its own cell, so every chain that ended was a
    reference cycle (holding ``fn``'s owner) until the next full collection.
    Nothing refers to a ``_Periodic`` but its pending heap entry, so an
    ended chain is freed at once."""

    __slots__ = ("sched", "interval", "fn")

    def __init__(self, sched: Scheduler, interval: float, fn: Callable[..., Any]) -> None:
        self.sched = sched
        self.interval = interval
        self.fn = fn

    def __call__(self, *args: Any) -> None:
        fn = self.fn
        try:
            stop = fn(*args)
        except StopIteration:
            return
        except SimulationError:
            raise
        except Exception as exc:
            # A periodic callback that raises must not just vanish from
            # the calendar: the chain is dead and, if the caller catches
            # the bare exception at run() level and resumes, the tick
            # would silently never fire again.  Surface it with the
            # scheduled time so the failure is attributable.
            raise SimulationError(
                f"periodic callback {getattr(fn, '__qualname__', fn)!r} "
                f"raised at t={self.sched.now:.6f}: {exc!r}"
            ) from exc
        if not stop:
            sched = self.sched
            sched.at(sched.now + self.interval, self, *args)
