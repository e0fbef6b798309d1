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

Parked trains
-------------
"Transmits every layer all the time" is what the source *does*, not what the
simulator must schedule.  At each slot boundary the source draws ``n`` for
every layer (same order, same RNG stream, heard or not).  A layer whose
group has a forwarding entry or a local handler at the source node gets its
``n`` emit events.  A layer nobody hears gets **none**: the train
``(t0, n, spacing, offset)`` is recorded on the sender and the sender is
*parked*.  Its packets are unobservable except through the sender's
counters, so they are counted rather than simulated:

* **wake** — the group gains its first listener on the node
  (:meth:`Node.set_forwarding` and :meth:`Node.add_group_handler` call the
  waker registered with :meth:`Node.add_group_waker`): emits already due
  are added to the counters as sent-unheard, the rest are scheduled
  through ``Scheduler.at`` at the float times ``t0 + (offset + i*spacing)``
  an unparked train would have used, and take the sequence numbers they
  would have had;
* **settle** — what is left of a parked train at the next slot boundary
  goes into the counters; ``packets_sent`` read at any instant includes the
  parked emits due by then (settle-on-read).

**Tie rule.**  For a parked train an emit is *already due* when its time is
strictly before ``now``.  An emit due at exactly the instant its group
becomes heard is scheduled, and therefore heard; a counter read at exactly
an emit's instant does not include it yet.

A layer pruned *mid-slot* keeps the emit events it already has until the
slot ends; ``_emit`` returns early for those (at most one slot of no-ops).
A source, once started, transmits until the run ends.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..simnet.engine import Scheduler
from ..simnet.node import Node
from ..simnet.packet import DATA, DEFAULT_PACKET_SIZE, Packet
from ..simnet.rng import Pcg64
from .layers import LayerSchedule

__all__ = ["LayeredSource", "CBR", "VBR"]

#: Traffic-model tags accepted by :class:`LayeredSource`.
CBR = "cbr"
VBR = "vbr"
#: VBR slot length in seconds (paper: 1 s).
SLOT = 1.0


class _LayerSender:
    """Per-layer transmit state: one emission counter, and the parked train.

    Every emit takes the next sequence number, so ``packets_sent`` is also
    the next sequence number; it adds the parked emits already due
    (strictly before ``now``) without settling them.
    """

    __slots__ = ("group", "rate", "phase", "sent", "parked", "_source")

    def __init__(self, source: "LayeredSource", group: int, rate: float, phase: float = 0.0):
        self._source = source
        self.group = group
        self.rate = rate
        #: Fraction of the inter-packet spacing this layer's train is offset
        #: by within each slot (decorrelates concurrent sources).
        self.phase = phase
        #: Emits settled so far (fired, or counted off a parked train).
        self.sent = 0
        #: ``(t0, n, spacing, offset)`` of this slot's train while nobody
        #: hears the layer, else ``None``.
        self.parked: Optional[Tuple[float, int, float, float]] = None

    def due(self) -> int:
        """Emits of the parked train due strictly before ``now``."""
        if self.parked is None:
            return 0
        t0, n, spacing, offset = self.parked
        now = self._source.sched.now
        i = 0
        while i < n and t0 + (offset + i * spacing) < now:
            i += 1
        return i

    @property
    def packets_sent(self) -> int:
        return self.sent + self.due()


class LayeredSource:
    """Application that multicasts a layered session from a node.

    Layers nobody hears at the source node hold no heap entries: their
    trains are parked and counted, and woken phase-exact when the group
    gains a listener (module docstring, "Parked trains").  Per-layer
    counters are on :attr:`senders` and are exact at any instant.

    Parameters
    ----------
    node:
        The host node the source runs on.
    session_id:
        Identifier of the session.
    groups:
        One group address per layer, index 0 = base layer.
    schedule:
        The advertised :class:`~repro.media.layers.LayerSchedule`.
    model:
        ``"cbr"`` or ``"vbr"``.
    peak_to_mean:
        VBR peak-to-mean ratio P (ignored for CBR).
    rng:
        :class:`~repro.simnet.rng.Pcg64` stream for the VBR draws (and
        phase jitter).
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
        rng: Optional[Pcg64] = None,
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
        self.rng = rng
        self.senders: List[_LayerSender] = [
            _LayerSender(
                self,
                g,
                schedule.rate(i + 1),
                phase=float(rng.uniform(0.0, 1.0)) if phase_jitter else 0.0,
            )
            for i, g in enumerate(groups)
        ]
        for sender in self.senders:
            node.add_group_waker(sender.group, partial(self._wake, sender))

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting all layers now; call once."""
        self.sched.at(self.sched.now, self._run_slot)

    # ------------------------------------------------------------------
    def _run_slot(self) -> None:
        """Settle last slot's parked trains, draw this slot's ``n`` for every
        layer, schedule the heard layers' emits and park the rest."""
        bits_per_packet = DEFAULT_PACKET_SIZE * 8.0
        sched = self.sched
        at, now, emit = sched.at, sched.now, self._emit
        node = self.node
        fwd, handlers = node.mcast_fwd, node.group_handlers
        for sender in self.senders:
            if sender.parked is not None:
                sender.sent += sender.parked[1]
                sender.parked = None
            mean_packets = sender.rate * SLOT / bits_per_packet
            n = self._draw_packets(mean_packets)
            if n <= 0:
                continue
            spacing = SLOT / n
            offset = sender.phase * spacing
            group = sender.group
            if group not in fwd and group not in handlers:
                sender.parked = (now, n, spacing, offset)
                continue
            for i in range(n):
                at(now + (offset + i * spacing), emit, sender)
        at(now + SLOT, self._run_slot)

    def _wake(self, sender: _LayerSender) -> None:
        """The sender's group gained a listener: count the parked emits
        already due, schedule the rest where they belong."""
        if sender.parked is None:
            return
        due = sender.due()
        t0, n, spacing, offset = sender.parked
        sender.parked = None
        sender.sent += due
        at, emit = self.sched.at, self._emit
        for i in range(due, n):
            at(t0 + (offset + i * spacing), emit, sender)

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
        node = self.node
        group = sender.group
        seq = sender.sent
        sender.sent = seq + 1
        # A layer pruned after its emits were scheduled: a packet for a
        # group with no forwarding entry and no local handler dies inside
        # ``Node.send`` without touching a counter, so don't build it.
        if group not in node.mcast_fwd and group not in node.group_handlers:
            return
        node.send(Packet(
            src=node.name,
            group=group,
            size=DEFAULT_PACKET_SIZE,
            seq=seq,
            kind=DATA,
        ))
