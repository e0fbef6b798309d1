"""Counters with interval snapshots.

A :class:`MetricsRegistry` is a flat name -> counter namespace.  Names are
dot-separated like bus topics (``"ctrl.reports"``, ``"link.drops"``).
Counters are created on first use and are cheap enough to update from
simulation callbacks (one float add).

:meth:`MetricsRegistry.mark_interval` snapshots the registry once per
controller interval: each snapshot carries the *delta* of every counter
since the previous mark, which is exactly the per-interval telemetry the
paper evaluates control cost with (§IV).
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["Counter", "MetricsRegistry", "sample_links"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got {n}")
        self.value += n


class MetricsRegistry:
    """Name -> counter registry with per-interval delta snapshots."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        #: One entry per :meth:`mark_interval` call.
        self.intervals: List[Dict[str, Any]] = []
        self._last_counts: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    # ------------------------------------------------------------------
    def mark_interval(self, now: float) -> Dict[str, Any]:
        """Snapshot counter deltas since the last mark."""
        deltas = {}
        for name, c in self._counters.items():
            prev = self._last_counts.get(name, 0.0)
            deltas[name] = c.value - prev
            self._last_counts[name] = c.value
        snap = {"t": now, "deltas": deltas}
        self.intervals.append(snap)
        return snap

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative value of every counter (JSON-friendly)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "n_intervals": len(self.intervals),
        }


def sample_links(network: Any, elapsed: float) -> List[Dict[str, Any]]:
    """Per-link utilisation/drop sample over ``elapsed`` seconds of sim time.

    Reads each link's cumulative :class:`~repro.simnet.link.LinkStats` and
    queue stats; callers (the run recorder's periodic sampler, the bench
    harness) diff successive samples themselves if they need rates.
    """
    rows = []
    for link in network.links.values():
        q = link.queue.stats
        rows.append(
            {
                "link": f"{link.src.name}->{link.dst.name}",
                "up": link.up,
                "utilization": link.stats.utilization(elapsed),
                "tx_packets": link.stats.tx_packets,
                "tx_bytes": link.stats.tx_bytes,
                "dropped": q.dropped,
                "queue_len": len(link.queue),
            }
        )
    return rows
