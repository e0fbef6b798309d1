"""Layered media sources (CBR and VBR).

A :class:`LayeredSource` transmits every layer of its session all the time —
in receiver-driven layered multicast the *source* never adapts; the multicast
tree prunes layers nobody downstream subscribes to.  Each layer goes to its
own group address with its own sequence-number space.

Traffic models (paper §IV):

* **CBR** — each layer sends exactly its advertised rate, packets evenly
  spaced.
* **VBR** — the Gopalakrishnan et al. model: time is divided into 1-second
  slots; in each slot a layer with mean ``A`` packets/slot transmits ``n``
  packets where ``n = 1`` with probability ``1 - 1/P`` and
  ``n = P*A + 1 - P`` with probability ``1/P`` (``P`` = peak-to-mean ratio;
  the paper evaluates P=3 and P=6).  E[n] = A for any A.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..simnet.engine import Scheduler
from ..simnet.node import Node
from ..simnet.packet import DATA, DEFAULT_PACKET_SIZE, Packet
from .layers import LayerSchedule

__all__ = ["LayeredSource", "CBR", "VBR"]

#: Traffic-model tags accepted by :class:`LayeredSource`.
CBR = "cbr"
VBR = "vbr"


class _LayerSender:
    """Per-layer transmit state (sequence counter and emission counters)."""

    __slots__ = ("layer", "group", "rate", "next_seq", "packets_sent", "bytes_sent", "phase")

    def __init__(self, layer: int, group: int, rate: float, phase: float = 0.0):
        self.layer = layer
        self.group = group
        self.rate = rate
        self.next_seq = 0
        self.packets_sent = 0
        self.bytes_sent = 0
        #: Fraction of the inter-packet spacing this layer's train is offset
        #: by within each slot (decorrelates concurrent sources).
        self.phase = phase


class LayeredSource:
    """Application that multicasts a layered session from a node.

    Parameters
    ----------
    node:
        The host node the source runs on.
    session_id:
        Identifier of the session (appears in every packet).
    groups:
        One group address per layer, index 0 = base layer.
    schedule:
        The advertised :class:`~repro.media.layers.LayerSchedule`.
    model:
        ``"cbr"`` or ``"vbr"``.
    peak_to_mean:
        VBR peak-to-mean ratio P (ignored for CBR).
    packet_size:
        Bytes per packet (paper: 1000).
    rng:
        ``numpy.random.Generator`` for the VBR draws (and phase jitter).
    slot:
        VBR slot length in seconds (paper: 1 s).
    phase_jitter:
        When True (requires ``rng``), each layer's packet train is offset by
        a random fixed fraction of its inter-packet spacing.  Without this,
        *every* source in an experiment emits at exactly the same instants
        (all start at t=0 with identical slot grids), and the synchronized
        combs overflow shared queues that are far from saturated on average
        — an artifact no real deployment exhibits.
    """

    def __init__(
        self,
        node: Node,
        session_id: int,
        groups: Sequence[int],
        schedule: LayerSchedule,
        model: str = CBR,
        peak_to_mean: float = 3.0,
        packet_size: int = DEFAULT_PACKET_SIZE,
        rng: Optional[np.random.Generator] = None,
        slot: float = 1.0,
        phase_jitter: bool = False,
    ):
        if len(groups) != schedule.n_layers:
            raise ValueError(
                f"need one group per layer: {len(groups)} groups for "
                f"{schedule.n_layers} layers"
            )
        if model not in (CBR, VBR):
            raise ValueError(f"model must be 'cbr' or 'vbr', got {model!r}")
        if model == VBR and peak_to_mean <= 1:
            raise ValueError(f"peak-to-mean ratio must exceed 1, got {peak_to_mean}")
        if model == VBR and rng is None:
            raise ValueError("VBR sources require an rng")
        if phase_jitter and rng is None:
            raise ValueError("phase_jitter requires an rng")
        self.node = node
        self.sched: Scheduler = node.sched
        self.session_id = session_id
        self.schedule = schedule
        self.model = model
        self.peak_to_mean = float(peak_to_mean)
        self.packet_size = packet_size
        self.rng = rng
        self.slot = slot
        self.senders: List[_LayerSender] = [
            _LayerSender(
                i + 1,
                g,
                schedule.rate(i + 1),
                phase=float(rng.uniform(0.0, 1.0)) if phase_jitter else 0.0,
            )
            for i, g in enumerate(groups)
        ]
        self._running = False
        self._slot_event = None

    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Begin transmitting all layers (immediately or at time ``at``)."""
        if self._running:
            return
        self._running = True
        when = self.sched.now if at is None else at
        self._slot_event = self.sched.at(when, self._run_slot)

    def stop(self) -> None:
        """Stop transmitting (pending slot events are cancelled)."""
        self._running = False
        if self._slot_event is not None:
            self._slot_event.cancel()
            self._slot_event = None

    @property
    def running(self) -> bool:
        """Whether the source is currently transmitting."""
        return self._running

    # ------------------------------------------------------------------
    def _run_slot(self) -> None:
        """Emit one slot's worth of packets for every layer, then reschedule."""
        if not self._running:
            return
        bits_per_packet = self.packet_size * 8.0
        sched = self.sched
        at, now, emit = sched.at, sched.now, self._emit
        for sender in self.senders:
            mean_packets = sender.rate * self.slot / bits_per_packet
            n = self._draw_packets(mean_packets)
            if n <= 0:
                continue
            spacing = self.slot / n
            offset = sender.phase * spacing
            for i in range(n):
                at(now + (offset + i * spacing), emit, sender)
        self._slot_event = at(now + self.slot, self._run_slot)

    def _draw_packets(self, mean_packets: float) -> int:
        """Number of packets this slot for a layer with mean ``mean_packets``."""
        if self.model == CBR:
            return int(round(mean_packets))
        p = self.peak_to_mean
        if self.rng.random() < 1.0 / p:
            burst = p * mean_packets + 1.0 - p
            return max(int(round(burst)), 1)
        return 1

    def _emit(self, sender: _LayerSender) -> None:
        if not self._running:
            return
        node = self.node
        group = sender.group
        seq = sender.next_seq
        sender.next_seq = seq + 1
        sender.packets_sent += 1
        sender.bytes_sent += self.packet_size
        # The source transmits every layer, but a packet for a group with no
        # forwarding entry and no local handler dies inside ``Node.send``
        # without touching a counter: don't build it.  A dead node still
        # gets the packet so ``dropped_dead`` is charged.
        if node.alive and group not in node.mcast_fwd and group not in node.group_handlers:
            return
        node.send(Packet(
            src=node.name,
            group=group,
            size=self.packet_size,
            seq=seq,
            session=self.session_id,
            layer=sender.layer,
            kind=DATA,
            created_at=self.sched.now,
        ))
