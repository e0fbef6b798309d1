"""Compile a :class:`~repro.workloads.spec.WorkloadSpec` onto a scenario.

:meth:`WorkloadRunner.install` parks the spec's population on the scenario
(receivers exist but subscribe to nothing and get no agent at ``run()``)
and schedules every spec event on the scenario's discrete-event scheduler.
Joins and leaves go through the same idempotent mechanics as fault-plan
churn (:mod:`repro.experiments.membership`), so a workload join builds its
agent on the identical deterministic RNG stream a ``receiver_join`` fault
would.

While the scenario runs, the runner measures what the workload stresses:

* live-membership accounting (``n_live``, ``peak_live``);
* join-to-first-packet latency samples (armed per join via
  ``LayeredReceiver.on_first_packet``);
* periodic ``workload.sample`` rows pairing the live-receiver count with
  cumulative control-plane bytes — the control-bytes-per-receiver-vs-crowd
  curve the scalability gates check.

Bus topics emitted here (``workload.join`` / ``workload.leave`` /
``workload.sample``) are registered in
:data:`repro.obs.bus.TOPIC_REGISTRY`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from ..control.agent import ReceiverAgent
from ..experiments.membership import join_receiver, leave_receiver
from .spec import WorkloadSpec

__all__ = ["WorkloadRunner", "control_bytes", "latency_percentiles", "percentile"]


def control_bytes(scenario: Any) -> float:
    """Control-plane bytes sent so far by the scenario's controllers and
    receiver agents (the senders a workload's crowd multiplies)."""
    total = float(sum(
        c.control_bytes_sent for c in scenario.controllers.values()
    ))
    for h in scenario.receivers:
        if isinstance(h.agent, ReceiverAgent):
            total += h.agent.control_bytes_sent
    return total


def percentile(ordered: List[float], q: float) -> float:
    """The ``q``-th percentile (``0 <= q <= 100``) of the non-empty sorted
    ``ordered``, equal bit for bit to ``numpy.percentile`` with its default
    ``"linear"`` method: the same virtual index and the same interpolation
    (numpy's ``_lerp``, which anchors at the nearer end)."""
    n = len(ordered)
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        # numpy clamps both neighbours to the last sample, and its weight
        # becomes ``virtual - (-1)``.
        lo = hi = n - 1
        t = virtual + 1.0
    else:
        lo = math.floor(virtual)
        hi = lo + 1
        t = virtual - lo
    a, b = ordered[lo], ordered[hi]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def latency_percentiles(samples_ms: List[float]) -> Dict[str, float]:
    """``{"p50": ..., "p99": ..., "n": ...}`` over latency samples (ms)."""
    if not samples_ms:
        return {"p50": 0.0, "p99": 0.0, "n": 0}
    ordered = sorted(float(x) for x in samples_ms)
    return {
        "p50": percentile(ordered, 50),
        "p99": percentile(ordered, 99),
        "n": len(samples_ms),
    }


#: Seconds between the runner's live-receiver / control-byte samples.
SAMPLE_INTERVAL = 5.0


class _FirstPacketProbe:
    """A receiver's ``on_first_packet`` probe, ``probe(now)``: books the
    join-to-first-packet latency of the runner's pending join, if any.

    A small object rather than a closure: the population holds one each."""

    __slots__ = ("runner", "receiver_id")

    def __init__(self, runner: "WorkloadRunner", receiver_id: Any) -> None:
        self.runner = runner
        self.receiver_id = receiver_id

    def __call__(self, now: float) -> None:
        runner = self.runner
        joined = runner._pending_join.pop(self.receiver_id, None)
        if joined is not None:
            runner.join_latency_ms.append((now - joined) * 1000.0)


class WorkloadRunner:
    """Binds one spec to one scenario and tracks workload metrics."""

    def __init__(self, scenario: Any, spec: WorkloadSpec):
        self.scenario = scenario
        self.spec = spec
        self.n_live = 0
        self.peak_live = 0
        self.joins_fired = 0
        self.leaves_fired = 0
        #: Join-to-first-packet latency samples, milliseconds.
        self.join_latency_ms: List[float] = []
        #: Periodic rows: {"t", "n_live", "control_bytes"}.
        self.samples: List[Dict[str, float]] = []
        self._pending_join: Dict[Any, float] = {}
        self._installed = False

    # ------------------------------------------------------------------
    def install(self) -> "WorkloadRunner":
        """Park the population and schedule every event; idempotent-guarded.

        Call after the scenario's sessions exist and before ``run()``.  A
        population member on a node or in a session the scenario lacks is a
        ValueError, raised before anything is installed.
        """
        if self._installed:
            raise RuntimeError("workload already installed")
        sc = self.scenario
        for rs in self.spec.population:
            if rs.node not in sc.network.nodes:
                raise ValueError(f"receiver {rs.receiver_id!r}: unknown node {rs.node!r}")
            if rs.session_id not in sc.sessions:
                raise ValueError(
                    f"receiver {rs.receiver_id!r}: unknown session {rs.session_id!r}")
        self._installed = True
        for rs in self.spec.population:
            handle = sc.add_receiver(
                rs.session_id, rs.node, receiver_id=rs.receiver_id,
                initial_level=0, mode=rs.mode, controller=rs.controller,
                parked=True,
            )
            handle.receiver.on_first_packet = _FirstPacketProbe(self, rs.receiver_id)
        for ev in self.spec.events:
            sc.sched.at(ev.time, self._fire, ev.kind, ev.receiver_id)
        sc.sched.every(SAMPLE_INTERVAL, self._sample)
        return self

    # ------------------------------------------------------------------
    def _fire(self, kind: str, receiver_id: Any) -> None:
        sc = self.scenario
        handle = sc.receiver_handle(receiver_id)
        if kind == "join":
            if not join_receiver(sc, handle):
                return
            self.joins_fired += 1
            self.n_live += 1
            if self.n_live > self.peak_live:
                self.peak_live = self.n_live
            self._pending_join[receiver_id] = sc.sched.now
        else:
            if not leave_receiver(sc, handle):
                return
            self.leaves_fired += 1
            self.n_live = max(0, self.n_live - 1)
            self._pending_join.pop(receiver_id, None)
        bus = sc.sched.bus
        if bus is not None:
            bus.emit(
                f"workload.{kind}", sc.sched.now,
                receiver=receiver_id, session=handle.session_id,
                n_live=self.n_live,
            )

    def _sample(self) -> None:
        sc = self.scenario
        row = {
            "t": sc.sched.now,
            "n_live": float(self.n_live),
            "control_bytes": control_bytes(sc),
        }
        self.samples.append(row)
        bus = sc.sched.bus
        if bus is not None:
            bus.emit(
                "workload.sample", sc.sched.now,
                n_live=self.n_live, control_bytes=row["control_bytes"],
                joins=self.joins_fired, leaves=self.leaves_fired,
            )

    # ------------------------------------------------------------------
    def control_bytes_per_live(self) -> List[Dict[str, float]]:
        """Per-sample-window control-byte rate normalised by live receivers.

        Rows: ``{"t", "n_live", "bytes_per_live_s"}`` — bytes sent in the
        window divided by window length and the live count at its end (the
        curve that must stay within the declared bound as a crowd ramps).
        """
        rows: List[Dict[str, float]] = []
        prev: Optional[Dict[str, float]] = None
        for row in self.samples:
            if prev is not None:
                dt = row["t"] - prev["t"]
                live = max(1.0, row["n_live"])
                if dt > 0:
                    rows.append({
                        "t": row["t"],
                        "n_live": row["n_live"],
                        "bytes_per_live_s":
                            (row["control_bytes"] - prev["control_bytes"])
                            / dt / live,
                    })
            prev = row
        return rows

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly digest of everything the runner measured."""
        return {
            "population": len(self.spec.population),
            "events": len(self.spec.events),
            "joins_fired": self.joins_fired,
            "leaves_fired": self.leaves_fired,
            "n_live": self.n_live,
            "peak_live": self.peak_live,
            "join_to_first_packet_ms": latency_percentiles(
                self.join_latency_ms
            ),
            "samples": [dict(r) for r in self.samples],
        }
