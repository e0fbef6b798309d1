"""Control-plane wire messages.

These objects travel as payloads of CONTROL packets through the simulated
network — the paper stations the controller at a source node precisely so
that "control messages could be lost due to congestion", and ours are subject
to the same drop-tail queues as the media traffic.

Sizes are nominal on-the-wire sizes in bytes (headers included) used for the
packets carrying each message.

Each end of the control plane has one address, and no message carries a
node: the controller is its node (:data:`CONTROL_PORT` there), a receiver
the node its packets come from and its session's :func:`session_port`.

Reports travel as RTCP compound receiver reports (RFC 3550 §6.4.2): once
per interval the receivers of one session at one node send one packet per
controller, whose payload is a tuple of :class:`Report` blocks, one per
receiver.  The packet costs :data:`REPORT_HEADER` plus
:data:`REPORT_BLOCK` per block, so a one-receiver packet is 96 B, and it
carries at most :data:`REPORT_MAX_BLOCKS` blocks (RTCP's 5-bit report
count).  The controller admits every block on its own.

Every field is required, so every message is sequenced or fenced.  The
sequencing and fencing fields:

* ``seq`` on :class:`Register`/:class:`Report` — a per-receiver sequence
  number shared by both message types, starting at 1 and strictly
  increasing per control message sent.  The controller rejects duplicates
  and reordered stragglers (``seq <= last seen``) and anything below 1.
* ``epoch`` on :class:`RegisterAck`/:class:`Suggestion` — the controller's
  fencing token, bumped on every (re)start and advanced past the old
  primary's on failover.  Receivers reject messages carrying an epoch lower
  than the highest they have seen, so a deposed controller that comes back
  cannot steer receivers with stale suggestions.
* ``epoch``/``round`` on the federation tier's :class:`SubtreeSummary` and
  :class:`FederationAdvice` — the coordinator's fencing token and the
  lockstep round a message was built at; both ends drop anything not
  newer than what they already hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "Register",
    "RegisterAck",
    "Report",
    "Suggestion",
    "SubtreeSummary",
    "FederationAdvice",
    "CONTROL_PORT",
    "session_port",
    "REGISTER_SIZE",
    "REPORT_HEADER",
    "REPORT_BLOCK",
    "REPORT_MAX_BLOCKS",
    "SUGGESTION_SIZE",
    "SUMMARY_SIZE",
    "ADVICE_SIZE",
]

#: Well-known port the controller agent listens on.
CONTROL_PORT = "toposense-ctrl"


def session_port(session_id: Any) -> str:
    """The port on which the receivers of ``session_id`` at a node hear the
    controller: the acks of their registrations and the suggestions
    addressed to that node."""
    return f"toposense-session:{session_id}"


REGISTER_SIZE = 64
#: A report packet is this header plus one block per receiver it carries.
REPORT_HEADER = 64
REPORT_BLOCK = 32
#: Blocks in one report packet at most: the limit of RTCP's 5-bit report
#: count (RFC 3550 §6.4.2); a larger group sends several packets.
REPORT_MAX_BLOCKS = 31
SUGGESTION_SIZE = 64
#: A :class:`SubtreeSummary` is a fixed-size aggregate — ten scalar fields
#: plus headers — no matter how many receivers the domain holds.  That
#: constant size is the whole point of the federation tier: inter-domain
#: control traffic scales with the number of domains, not receivers.
SUMMARY_SIZE = 96
ADVICE_SIZE = 48


@dataclass(frozen=True)
class Register:
    """Receiver -> controller: 'I receive session X' at the packet's source."""

    receiver_id: Any
    session_id: Any
    seq: int  # per-receiver control sequence number, from 1


@dataclass(frozen=True)
class RegisterAck:
    """Controller -> receiver: registration confirmed."""

    receiver_id: Any
    session_id: Any
    epoch: int  # controller epoch (fencing token)


@dataclass(frozen=True)
class Report:
    """Receiver -> controller: one interval's loss/bytes/subscription.

    This is the RTCP-receiver-report stand-in: the controller's algorithm
    inputs are exactly ``loss_rate``, ``bytes`` and ``level``.  It is one
    block of a report packet, whose payload is a tuple of them.
    """

    receiver_id: Any
    session_id: Any
    loss_rate: float
    bytes: float
    level: int
    t0: float
    t1: float
    seq: int  # per-receiver control sequence number, from 1


@dataclass(frozen=True)
class Suggestion:
    """Controller -> one node: its receivers of this session should
    subscribe to this many layers.

    TopoSense computes one level per leaf of the session tree, so a
    suggestion is addressed to the leaf node, at :func:`session_port`,
    and every receiver of the session there hears it: control bytes scale
    with the tree's leaves, not with its receivers."""

    session_id: Any
    level: int
    epoch: int  # controller epoch (fencing token)


@dataclass(frozen=True)
class SubtreeSummary:
    """Domain shard -> federation coordinator: one domain's aggregate state.

    Crosses the inter-domain boundary on a fixed cadence and carries only
    aggregates — the coordinator (by design, and enforced by
    :class:`~repro.federation.coordinator.FederationCoordinator`) never sees a
    per-receiver :class:`Report`.  ``min_level``/``max_level``/``level_sum``
    summarise the domain controller's last suggestion set (the domain's
    layer fit), ``mean_loss``/``max_loss`` its latest accepted loss reports
    (the congestion level), and ``bottleneck_bps`` the worst per-receiver
    goodput estimate behind the border gateway.
    """

    domain: Any
    session_id: Any
    gateway: Any  # border gateway node the aggregate was measured behind
    receiver_count: int
    mean_loss: float
    max_loss: float
    min_level: int  # lowest suggested subscription level in the domain
    max_level: int  # highest suggested subscription level in the domain
    level_sum: int  # sum of suggested levels (for cross-domain means)
    bottleneck_bps: float  # worst receiver goodput estimate, bits/s
    issued_at: float
    #: Lockstep round the summary was built at.  The coordinator keeps the
    #: highest round per (session, domain) and drops older arrivals, which
    #: absorbs the duplicates that retries and in-flight delays create on a
    #: lossy inter-domain channel.
    round: int


@dataclass(frozen=True)
class FederationAdvice:
    """Federation coordinator -> domain shards: session-level layer advice.

    ``ceiling`` is the highest layer any domain can use (layers above it
    carry traffic nobody can decode), ``floor`` the lowest fit across
    domains; both are derived purely from :class:`SubtreeSummary`
    aggregates, merged in sorted-domain order so the advice does not depend
    on the order summaries arrive in.

    ``epoch``/``round`` make the advice safe on an unreliable channel:
    shards reject advice from a deposed coordinator (lower epoch) or from
    the past (lower round at the same epoch), and use ``round`` to measure
    *advice age* while a partition keeps fresh advice out — the input to
    the bounded-staleness ceiling decay.
    """

    session_id: Any
    ceiling: int
    floor: int
    receiver_count: int  # session-wide receiver total, from summary counts
    bottleneck_bps: float  # worst bottleneck estimate across all domains
    issued_at: float
    epoch: int  # coordinator fencing token, bumped on failover
    round: int  # lockstep round the merge ran at (advice-age reference)
