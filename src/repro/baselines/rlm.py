"""Receiver-driven Layered Multicast (RLM) baseline.

McCanne, Jacobson & Vetterli's RLM [8] is the canonical *topology-blind*
layered scheme the paper positions itself against: each receiver runs an
independent probe/back-off state machine using only its own end-to-end loss
signal.  Comparing it with TopoSense on the same topologies quantifies the
value of topology information (DESIGN.md ablation).

Implemented state machine (per receiver):

* every ``INTERVAL`` seconds the receiver samples its loss rate;
* **loss above** ``LOSS_THRESHOLD`` — drop the top layer and go deaf for
  ``DEAF_TIME`` (ignore loss caused by the prune latency).  If the loss hit
  during a *join experiment* (a recently added layer), the experiment failed:
  the join timer for that layer doubles (exponential back-off, capped);
* **no loss** — if the pending experiment has survived ``DETECTION_TIME``,
  declare it successful and relax that layer's join timer; then, if the next
  layer's join timer has expired, add it and start a new experiment.

The original protocol's *shared learning* (receivers observing each other's
experiments) is omitted: with the paper's one-receiver-per-session Topology B
it has no effect, and on Topology A its absence only makes the baseline more
conservative.  This is documented in DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..media.receiver import LayeredReceiver
from ..simnet.rng import Pcg64

__all__ = ["RLMReceiver"]

#: Seconds between loss samples.
INTERVAL = 1.0
#: Interval loss rate above which the top layer is dropped.
LOSS_THRESHOLD = 0.05
#: A join experiment that survives this long (s) succeeded.
DETECTION_TIME = 2.0
#: Loss is ignored for this long (s) after a drop (prune latency).
DEAF_TIME = 3.0
#: Initial and largest per-layer join timer (s).
T_JOIN_INIT = 5.0
T_JOIN_MAX = 600.0


class RLMReceiver:
    """Attach RLM adaptation to a :class:`LayeredReceiver`."""

    def __init__(
        self,
        receiver: LayeredReceiver,
        *,
        rng: Pcg64,
    ):
        self.receiver = receiver
        self.sched = receiver.sched
        self.rng = rng
        n = receiver.schedule.n_layers
        #: Current join-timer duration per layer (1-based index).
        self.join_timer: Dict[int, float] = {l: T_JOIN_INIT for l in range(1, n + 1)}
        #: Earliest time each layer may next be joined.
        self.next_join_at: Dict[int, float] = {l: 0.0 for l in range(1, n + 1)}
        self.deaf_until = 0.0
        self.experiment_layer: Optional[int] = None
        self.experiment_started = 0.0
        self.failed_experiments = 0
        self.successful_experiments = 0
        self.drops = 0
        self.active = True
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic adaptation loop."""
        if self._started:
            return
        self._started = True
        phase = float(self.rng.uniform(0.0, 0.5)) * INTERVAL
        self.sched.every(INTERVAL, self._tick, start=self.sched.now + INTERVAL + phase)

    def stop(self) -> None:
        """Cease adaptation and unsubscribe (the receiver departs)."""
        if not self.active:
            return
        self.active = False
        self.receiver.set_level(0)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self.active:
            raise StopIteration  # ends the periodic adaptation loop
        now = self.sched.now
        stats = self.receiver.interval_stats()
        if now < self.deaf_until:
            return
        loss = stats.loss_rate
        if loss > LOSS_THRESHOLD:
            self._on_congestion(now)
        else:
            self._on_clear(now)

    def _on_congestion(self, now: float) -> None:
        exp = self.experiment_layer
        if exp is not None and now - self.experiment_started <= DETECTION_TIME + INTERVAL:
            # Our own probe caused this: exponential back-off for that layer.
            self.join_timer[exp] = min(self.join_timer[exp] * 2.0, T_JOIN_MAX)
            self.next_join_at[exp] = now + self.join_timer[exp]
            self.failed_experiments += 1
        self.experiment_layer = None
        if self.receiver.level > 1:
            self.receiver.drop_layer()
            self.drops += 1
        self.deaf_until = now + DEAF_TIME

    def _on_clear(self, now: float) -> None:
        exp = self.experiment_layer
        if exp is not None and now - self.experiment_started > DETECTION_TIME:
            # Probe survived: keep the layer, relax its timer.
            self.join_timer[exp] = max(self.join_timer[exp] / 2.0, T_JOIN_INIT)
            self.successful_experiments += 1
            self.experiment_layer = None
        if self.experiment_layer is not None:
            return  # experiment still in flight
        nxt = self.receiver.level + 1
        if nxt <= self.receiver.schedule.n_layers and now >= self.next_join_at[nxt]:
            self.receiver.add_layer()
            self.experiment_layer = nxt
            self.experiment_started = now
            self.next_join_at[nxt] = now + self.join_timer[nxt]
