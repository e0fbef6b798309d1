"""Observability: event bus, metrics registry, run artifacts, profiling.

The simulator, control plane and experiments emit typed, timestamped events
onto an :class:`EventBus` (attached to the scheduler; zero overhead when
absent), accumulate counters in a :class:`MetricsRegistry`,
and record wall-clock stage timings in a :class:`Profiler`.
:class:`RunRecorder` ties the three together into an on-disk run directory
(manifest + JSONL event log + metrics summary) for every CLI experiment run.
Nothing here times a run against a baseline: that is ``bench/``'s job.
"""

from .bus import BusEvent, EventBus
from .metrics import Counter, MetricsRegistry, sample_links
from .profile import Profiler
from .run import RunRecorder, fault_log_entries, git_rev, strip_timings

__all__ = [
    "BusEvent",
    "EventBus",
    "Counter",
    "MetricsRegistry",
    "Profiler",
    "RunRecorder",
    "fault_log_entries",
    "git_rev",
    "sample_links",
    "strip_timings",
]
