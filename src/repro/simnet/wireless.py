"""Wireless edge links: seeded non-uniform path loss with burst fading.

The paper's stage-1/2 inference treats loss as a congestion signal.  A
:class:`WirelessEdgeLink` breaks that assumption the way wireless access
networks do (Sethu & Gerety): packets that were successfully serialized are
lost on the air with a probability that depends on a two-state
Gilbert–Elliott channel —

* **good** state: independent losses at ``loss_rate`` (non-uniform per
  link: the builder draws each edge's rate from a seeded RNG);
* **bad** (fading) state: losses at :data:`BURST_LOSS`, entered with
  probability ``fade_in`` and left with probability :data:`FADE_OUT` per
  transmitted packet, producing the bursty loss signature of deep fades.

Wireless drops are counted *separately* from congestive ones: the link's
:attr:`~repro.simnet.link.Link.drops` books them under ``"wireless"`` (and
the ``link.drop`` bus event carries ``reason="wireless"``), next to the
``"queue_full"`` and ``"link_down"`` drops of any link, which is what lets
experiments measure how often the control plane misattributes channel loss
to congestion (see :func:`repro.metrics.attribution.loss_attribution`).

The channel is drawn once per packet, in FIFO order, from the link's own
stream, when the packet finishes serializing — that is, when the link is
settled past the packet's end (see :mod:`repro.simnet.link`).  A packet
the channel eats is marked in its FIFO entry; its arrival, the one
scheduler event a packet gets, settles the link first and then drops it.

Everything else — serialization, propagation, queueing, up/down faults —
is inherited unchanged from :class:`~repro.simnet.link.Link`, so wireless
edges compose with every existing injector and metric.
"""

from __future__ import annotations

from typing import Any, List, TYPE_CHECKING

from .link import DROP_WIRELESS, Link
from .packet import Packet
from .queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Scheduler
    from .node import Node

__all__ = ["WirelessEdgeLink"]

#: Bad-state (fading) per-packet loss probability.
BURST_LOSS = 0.9
#: Per-packet bad→good transition probability; positive, so fades always
#: end.
FADE_OUT = 0.25


class WirelessEdgeLink(Link):
    """A :class:`Link` whose delivered packets face a fading radio channel.

    Parameters
    ----------
    loss_rate:
        Good-state per-packet loss probability in ``[0, 1)``.
    fade_in:
        Per-packet Gilbert–Elliott good→bad transition probability.
    rng:
        Seeded :class:`~repro.simnet.rng.Pcg64` stream; required whenever
        any loss or fading probability is non-zero, so channel draws come
        from a stream named by :func:`~repro.simnet.rng.stream_seed`.
    """

    __slots__ = ("loss_rate", "fade_in", "fading", "rng")

    def __init__(
        self,
        sched: "Scheduler",
        src: "Node",
        dst: "Node",
        bandwidth: float,
        delay: float,
        discipline: DropTailQueue,
        *,
        loss_rate: float = 0.0,
        fade_in: float = 0.0,
        rng=None,
    ):
        super().__init__(sched, src, dst, bandwidth, delay, discipline)
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if not 0.0 <= fade_in <= 1.0:
            raise ValueError(f"fade_in must be in [0, 1], got {fade_in}")
        if rng is None and (loss_rate > 0 or fade_in > 0):
            raise ValueError("a lossy wireless link needs a seeded rng")
        self.loss_rate = float(loss_rate)
        self.fade_in = float(fade_in)
        self.fading = False
        self.rng = rng

    # ------------------------------------------------------------------
    def _channel_lost(self) -> bool:
        """Advance the Gilbert–Elliott channel one packet; True = lost."""
        rng = self.rng
        if self.fading:
            if rng.random() < FADE_OUT:
                self.fading = False
        elif self.fade_in > 0.0 and rng.random() < self.fade_in:
            self.fading = True
        p = BURST_LOSS if self.fading else self.loss_rate
        if p <= 0.0:
            return False
        return bool(rng.random() < p)

    def _settle(self) -> None:
        # The channel claims a packet after serialization: the transmitter
        # paid the airtime either way, so utilization and the FIFO are
        # settled exactly as on a wired link — by the wired link's own code.
        if self.rng is not None:
            now = self.sched.now
            for entry in self._fifo:
                if entry[0] > now:
                    break
                if self._channel_lost():
                    entry[4] = True
                    self._emit_drop(entry[1], DROP_WIRELESS, entry[0])
        Link._settle(self)

    def send(self, pkt: Packet) -> bool:
        # Link.send settles a finished packet inline, without the channel.
        self._settle()
        return Link.send(self, pkt)

    def _book(self, end: float, pkt: Packet, tx_time: float) -> List[Any]:
        # ``entry[4]`` is the channel's verdict: True = lost on the air.
        entry = [end, pkt, tx_time, None, False]
        entry[3] = self.sched.at(end + self.delay, self._arrive, entry)
        return entry

    def _arrive(self, entry: List[Any]) -> None:
        self._settle()  # the channel draw for this packet happens first
        if not entry[4]:
            self._receive(entry[1], self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fading" if self.fading else "good"
        return (
            f"<WirelessEdgeLink {self.src.name}->{self.dst.name} "
            f"{self.bandwidth / 1e3:.0f}Kbps p={self.loss_rate:.3f} {state}>"
        )
