"""Congestive vs wireless loss attribution.

The paper's stage-1/2 inference treats *every* packet loss as a congestion
signal.  On wired topologies that is exact: the only drop sources are
queues (and outages).  Once wireless edges enter
(:class:`~repro.simnet.wireless.WirelessEdgeLink`), channel losses reach
the controller through the very same receiver loss reports, and the
control plane cannot tell them apart — it *misattributes* them to
congestion and throttles layers that the network could have carried
(Sethu & Gerety's non-congestive-loss critique).

The simulator knows the ground truth, because every link counts its drops
by reason.  :func:`loss_attribution` surfaces it:
``misattribution_rate`` is the fraction of all link-level losses that were
actually channel noise — i.e. the fraction of the loss signal feeding the
congestion inference that is a lie.
"""

from __future__ import annotations

from typing import Any, Dict

from ..simnet.link import DROP_LINK_DOWN, DROP_QUEUE_FULL, DROP_WIRELESS

__all__ = ["loss_attribution"]


def loss_attribution(network: Any) -> Dict[str, float]:
    """Ground-truth drop accounting over every link in ``network``.

    Returns ``congestive_drops`` (queue drops plus outage drops),
    ``wireless_drops`` (channel losses on
    :class:`~repro.simnet.wireless.WirelessEdgeLink` edges) and
    ``misattribution_rate`` — wireless over total, 0.0 when nothing was
    dropped.
    """
    congestive = 0
    wireless = 0
    for link in network.links.values():
        drops = link.drops
        congestive += drops[DROP_QUEUE_FULL] + drops[DROP_LINK_DOWN]
        wireless += drops[DROP_WIRELESS]
    total = congestive + wireless
    return {
        "congestive_drops": float(congestive),
        "wireless_drops": float(wireless),
        "misattribution_rate": wireless / total if total else 0.0,
    }
