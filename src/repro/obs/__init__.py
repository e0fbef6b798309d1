"""Observability: event bus, run artifacts, profiling.

The simulator, control plane and experiments emit typed, timestamped events
onto an :class:`~repro.obs.bus.EventBus` (attached to the scheduler; zero
overhead when absent) and record wall-clock stage timings in a
:class:`~repro.obs.profile.Profiler`.  :class:`~repro.obs.run.RunRecorder`
ties the two together into an on-disk run directory (manifest + JSONL event
log + per-topic event counts) for every CLI experiment run.
Nothing here times a run against a baseline: that is ``bench/``'s job.
"""
