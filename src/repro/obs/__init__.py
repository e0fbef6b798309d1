"""Observability: event bus, run artifacts, profiling.

The simulator, control plane and experiments emit typed, timestamped events
onto an :class:`EventBus` (attached to the scheduler; zero overhead when
absent) and record wall-clock stage timings in a :class:`Profiler`.
:class:`RunRecorder` ties the two together into an on-disk run directory
(manifest + JSONL event log + per-topic event counts) for every CLI
experiment run.
Nothing here times a run against a baseline: that is ``bench/``'s job.
"""

from .bus import BusEvent, EventBus
from .profile import Profiler
from .run import RunRecorder, fault_log_entries, git_rev, sample_links, strip_timings

__all__ = [
    "BusEvent",
    "EventBus",
    "Profiler",
    "RunRecorder",
    "fault_log_entries",
    "git_rev",
    "sample_links",
    "strip_timings",
]
