"""Run artifacts: a directory per experiment run.

Every ``python -m repro <experiment>`` invocation (chaos, byzantine, demo,
bench) records itself under a run directory::

    runs/<experiment>-s<seed>-<stamp>/
        manifest.json     seed, args, git rev, wall/sim time, event count
        events.jsonl      one JSON object per bus event, in emit order
        metrics.json      event counts per topic, per-interval deltas, profiler summary
        result.json       the experiment's own result dict (when it has one)

The root defaults to ``./runs`` and can be moved with ``REPRO_RUNS_DIR``
(or disabled per-run with ``--no-artifacts``).  The recorder owns an
:class:`~repro.obs.bus.EventBus`, subscribes to a curated topic set
(:data:`DEFAULT_TOPICS` — control plane, links, receivers, guard) and
attaches the bus to a scenario's scheduler, so the instrumented stack's
events — the fault injectors' ``fault.<kind>`` included — land in
``events.jsonl`` in the order they happen.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.toposense import TopoSense
from ..simnet.link import DROP_LINK_DOWN, DROP_QUEUE_FULL
from .bus import BusEvent, EventBus, default_record_patterns
from .profile import Profiler

__all__ = [
    "DEFAULT_TOPICS",
    "RunRecorder",
    "fault_log_entries",
    "git_rev",
    "sample_links",
    "strip_timings",
]

#: Topic patterns a recorder logs by default: everything except the
#: per-scheduler-event ``sched.dispatch`` firehose.  Derived from the
#: canonical :data:`~repro.obs.bus.TOPIC_REGISTRY`, so registering a new
#: topic family automatically lands its events in ``events.jsonl``.
DEFAULT_TOPICS: Tuple[str, ...] = default_record_patterns()


def git_rev(short: bool = True) -> str:
    """The repo's current commit hash, or ``"unknown"`` outside a checkout."""
    cmd = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=5.0,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def fault_log_entries(log: Iterable[Tuple[float, str, str]]) -> List[Dict[str, Any]]:
    """Normalise a fault injector's ``(time, kind, detail)`` log to dicts.

    The one shared renderer for every experiment's ``fault_log`` result
    field, the federation's included.
    """
    return [{"time": t, "kind": kind, "detail": detail} for (t, kind, detail) in log]


def strip_timings(result: Dict[str, Any], keys: Iterable[str]) -> Dict[str, Any]:
    """``result`` after a JSON round-trip, minus every ``keys`` entry at any depth.

    The one projection two same-input runs must agree on bit-for-bit:
    ``keys`` names an experiment's wall-clock fields (``wall_s``,
    ``shard_wall_ms``); everything left is simulation output.
    """
    drop = frozenset(keys)
    stripped: Dict[str, Any] = json.loads(
        json.dumps(result, default=str),
        object_hook=lambda d: {k: v for k, v in d.items() if k not in drop},
    )
    return stripped


def sample_links(network: Any, elapsed: float) -> List[Dict[str, Any]]:
    """Per-link utilisation/drop sample over ``elapsed`` seconds of sim time.

    Reads each link's cumulative :class:`~repro.simnet.link.LinkStats` and
    congestive drops; a reader diffs successive samples if it needs rates.
    """
    rows = []
    for link in network.links.values():
        drops = link.drops
        rows.append(
            {
                "link": f"{link.src.name}->{link.dst.name}",
                "up": link.up,
                "utilization": link.stats.utilization(elapsed),
                "tx_packets": link.stats.tx_packets,
                "tx_bytes": link.stats.tx_bytes,
                "dropped": drops[DROP_QUEUE_FULL] + drops[DROP_LINK_DOWN],
                "queue_len": link.backlog,
            }
        )
    return rows


class RunRecorder:
    """Owns one run directory and the observability objects feeding it."""

    def __init__(
        self,
        experiment: str,
        seed: Optional[int] = None,
        root: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.experiment = experiment
        self.seed = seed
        self.args = dict(args or {})
        self.bus = EventBus()
        #: ``events.<topic>`` -> events logged so far.
        self.counts: Counter[str] = Counter()
        #: One ``{"t", "deltas"}`` entry per sampler tick: each count's
        #: growth since the previous tick.
        self.intervals: List[Dict[str, Any]] = []
        self._last_counts: Dict[str, int] = {}
        self.profiler = Profiler()
        self._scenario: Any = None
        self._wall_t0 = time.perf_counter()
        self._finalized = False
        root_path = Path(root if root is not None else os.environ.get("REPRO_RUNS_DIR", "runs"))
        # Run directories are keyed by wall-clock on purpose: the stamp
        # names the artifact, it never feeds the simulation.
        stamp = time.strftime("%Y%m%d-%H%M%S")
        base = f"{experiment}" + (f"-s{seed}" if seed is not None else "") + f"-{stamp}"
        run_dir = root_path / base
        n = 2
        while run_dir.exists():
            run_dir = root_path / f"{base}-{n}"
            n += 1
        run_dir.mkdir(parents=True)
        self.dir = run_dir
        self._events_fh = open(run_dir / "events.jsonl", "w")
        self.events_logged = 0
        for pattern in DEFAULT_TOPICS:
            self.bus.subscribe(pattern, self._on_event)

    # ------------------------------------------------------------------
    def _on_event(self, ev: BusEvent) -> None:
        self.log_event(ev.time, ev.topic, ev.data)

    def log_event(self, t: float, topic: str, data: Optional[Dict[str, Any]] = None) -> None:
        """Append one line to ``events.jsonl`` and bump the topic counter."""
        entry = {"t": t, "topic": topic}
        if data:
            entry.update(data)
        self._events_fh.write(json.dumps(entry, default=str) + "\n")
        self.events_logged += 1
        self.counts[f"events.{topic}"] += 1

    # ------------------------------------------------------------------
    def attach(self, scenario: Any, sample_interval: Optional[float] = None) -> None:
        """Wire this recorder into a scenario before it runs.

        Attaches the bus and profiler to the scheduler, the profiler to
        every controller (and its algorithm, when it is TopoSense), and — if
        ``sample_interval`` is given — a periodic link utilisation sampler
        and a per-interval metrics mark.
        """
        self._scenario = scenario
        sched = scenario.sched
        sched.bus = self.bus
        sched.profiler = self.profiler
        for controller in scenario.controllers.values():
            controller.profiler = self.profiler
            if isinstance(controller.algorithm, TopoSense):
                controller.algorithm.profiler = self.profiler
        scenario.mcast.profiler = self.profiler
        if sample_interval is not None:
            if sample_interval <= 0:
                raise ValueError("sample_interval must be positive")

            def _sample() -> None:
                now = sched.now
                for row in sample_links(scenario.network, max(now, 1e-9)):
                    self.log_event(now, "link.sample", row)
                self._mark_interval(now)

            sched.every(sample_interval, _sample)

    def _mark_interval(self, now: float) -> None:
        last = self._last_counts
        deltas = {name: float(n - last.get(name, 0)) for name, n in self.counts.items()}
        self._last_counts = dict(self.counts)
        self.intervals.append({"t": now, "deltas": deltas})

    # ------------------------------------------------------------------
    def finalize(
        self,
        result: Optional[Dict[str, Any]] = None,
        sim_time: Optional[float] = None,
    ) -> Path:
        """Write manifest/metrics (and ``result.json``); close the log."""
        if self._finalized:
            return self.dir
        self._finalized = True
        self._events_fh.close()
        if sim_time is None and self._scenario is not None:
            sim_time = self._scenario.sched.now
        wall = time.perf_counter() - self._wall_t0
        manifest = {
            "experiment": self.experiment,
            "seed": self.seed,
            "args": self.args,
            "git_rev": git_rev(),
            "python": sys.version.split()[0],
            # Manifest provenance is wall-clock by design; it never feeds
            # the simulation.
            "started_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time() - wall)
            ),
            "wall_seconds": wall,
            "sim_seconds": sim_time,
            "events_logged": self.events_logged,
        }
        if self._scenario is not None:
            manifest["sim_events_processed"] = self._scenario.sched.events_processed
        (self.dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str))
        metrics = {
            "metrics": {
                "counters": {name: float(n) for name, n in sorted(self.counts.items())},
                "n_intervals": len(self.intervals),
            },
            "intervals": self.intervals,
            "profile": self.profiler.summary(),
        }
        (self.dir / "metrics.json").write_text(json.dumps(metrics, indent=2, default=str))
        if result is not None:
            (self.dir / "result.json").write_text(json.dumps(result, indent=2, default=str))
        return self.dir
