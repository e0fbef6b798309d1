"""Report validation and misbehaving-receiver quarantine.

The paper's controller trusts every receiver report.  Loss is the gentlest
failure of that trust: a duplicated, reordered, corrupted or deliberately
false ``Report`` flows straight into the six-stage algorithm, and a single
receiver claiming inflated (or suppressed) loss can drag capacity estimation
and the min-based internal-loss computation for its whole subtree — the
receiver-misbehaviour concern of Lucas et al. (2010).

:class:`ReportGuard` sits between the controller agent's packet handler and
its algorithm.  Every inbound report passes three gates:

1. **Structural validation** — fields must be finite and in range
   (``loss_rate`` in [0, 1], ``bytes`` >= 0, ``level`` within the session's
   layer schedule, ``t0 <= t1``) and the sender must be registered.  This is
   the checksum stand-in: garbled control packets fail here.
2. **Sequencing** — per-receiver sequence numbers, starting at 1; anything
   below 1 is malformed (``bad_seq``), and duplicates and reordered
   stragglers (``seq <= last seen``) are rejected.
3. **Behavioural scoring** — accepted reports accrue *strikes* when they are
   internally inconsistent, disobedient, or persistent outliers against
   sibling-subtree loss statistics (see below).  Enough strikes quarantine
   the receiver; clean behaviour decays strikes and eventually rehabilitates
   a quarantined receiver.

Strike sources
--------------

* **Inconsistent loss** (per report): the bytes field implies a loss rate
  (``1 - bytes / expected bytes at the reported level``).  Claiming much
  *more* loss than the bytes imply is the naive lie-high attack.  Only the
  over-claim direction is scored — under-claims occur legitimately when a
  layer was joined mid-interval.
* **Disobedience** (per report): reporting a subscription level more than
  ``DISOBEY_MARGIN`` above the last suggestion sent to that receiver.
  Receivers climb one layer at a time, so an honest receiver can never
  legitimately exceed its suggestion by more than one.
* **Under-reporting** (per audit): against the receivers whose nodes hang
  under the same parent node of the session tree (each receiver is one
  sibling, co-located ones included), claiming *near-zero* loss (below
  ``LOW_LOSS_FLOOR``) while every sibling reports substantial loss (the
  sibling minimum exceeds the claim by ``OUTLIER_MARGIN``), at or above the
  siblings' median level.  This is the self-serving lie-low/freerider
  attack.  Three guards against framing honest receivers are deliberate:
  the *minimum* (a lie-high sibling inflates any average but cannot raise
  the minimum past another honest sibling), the *level gate* (subscribing
  fewer layers is a legitimate reason to see less loss), and the
  *near-zero requirement* — shared-link drops are not spread evenly across
  subscription levels, so an honest receiver can see a notably smaller loss
  ratio than its siblings; what it cannot honestly see is none at all.

Quarantined receivers keep reporting and keep being scored — a liar that
turns honest accrues a clean streak and is released after
``REHAB_INTERVALS`` consecutive clean reports.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import nsmallest
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["GUARDED_FIELDS", "GUARD_EXEMPT_FIELDS", "ReportGuard"]

Key = Tuple[Any, Any]  # (session_id, receiver_id)

#: Inbound message type -> fields this guard's admission pipeline validates
#: or scores.  ``tests/test_source_rules.py`` cross-checks this against the
#: dataclasses in ``control/messages.py``: a field added to a message
#: without either a guard rule here or an explicit exemption below fails
#: the suite, and a field listed here must actually be read as
#: ``msg.<field>`` somewhere in this module.
GUARDED_FIELDS: Dict[str, Set[str]] = {
    "Register": {"receiver_id", "seq"},
    "Report": {"loss_rate", "bytes", "level", "t0", "t1", "seq"},
}

#: Fields deliberately outside the admission checks, with the reason:
#: ``session_id`` is validated upstream via the known-session lookup, and
#: ``receiver_id`` on reports doubles as the registration key.  No inbound
#: message names a node: the controller files a receiver at its packet's
#: source, so a receiver cannot claim a node it does not send from.
#: The federation-tier messages (``SubtreeSummary``, ``FederationAdvice``)
#: are exempt wholesale: they travel between infrastructure peers (domain
#: controllers and the coordinator), never from receivers, and the
#: coordinator structurally validates them — rejecting any per-receiver
#: message type outright — in ``repro.federation.coordinator``.
GUARD_EXEMPT_FIELDS: Dict[str, Set[str]] = {
    "Register": {"session_id"},
    "Report": {"receiver_id", "session_id"},
    "SubtreeSummary": {
        "domain", "session_id", "gateway", "receiver_count", "mean_loss",
        "max_loss", "min_level", "max_level", "level_sum", "bottleneck_bps",
        "issued_at", "round",
    },
    "FederationAdvice": {
        "session_id", "ceiling", "floor", "receiver_count", "bottleneck_bps",
        "issued_at", "epoch", "round",
    },
}


#: Strike when ``claimed_loss - implied_loss`` exceeds this (the bytes
#: field contradicts the loss field in the lie-high direction).
CONSISTENCY_TOLERANCE = 0.25
#: Strike when the sibling minimum loss exceeds the claimed loss by more
#: than this (lie-low / under-reporting).
OUTLIER_MARGIN = 0.15
#: ... but only when the claim itself is below this: honest loss ratios
#: vary across subscription levels, honest *zero* during shared
#: congestion does not happen.
LOW_LOSS_FLOOR = 0.05
#: Reported level may exceed the last suggestion by this much before a
#: disobedience strike (1 = the legitimate one-layer climb headroom).
DISOBEY_MARGIN = 1
#: Strikes at or above this quarantine the receiver.
STRIKE_THRESHOLD = 3.0
#: Strikes shed per audit in which the receiver earned no strike.
STRIKE_DECAY = 1.0
#: Strikes are capped here so rehabilitation stays reachable.
MAX_STRIKES = 6.0
#: Consecutive clean audits needed to release a quarantined receiver.
REHAB_INTERVALS = 8
#: Skip the consistency check when the interval's expected volume is
#: below this many bits (partial intervals carry no signal).
MIN_EXPECTED_BITS = 8_000.0
#: Sibling-outlier audit needs at least this many *other* fresh,
#: unquarantined reports under the same parent node.
MIN_SIBLINGS = 1


class _ReceiverRecord:
    """Per-receiver behavioural state."""

    __slots__ = ("strikes", "quarantined_at", "clean_streak", "struck_since_audit")

    def __init__(self) -> None:
        self.strikes = 0.0
        self.quarantined_at: Optional[float] = None
        self.clean_streak = 0
        self.struck_since_audit = False


def _finite_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _median_without(ordered: List[int], skip: Optional[int]) -> float:
    """``statistics.median`` of the sorted ``ordered`` with the element at
    index ``skip`` left out (``None``: nothing left out): the middle element,
    or the mean of the two middle ones for an even count."""
    n = len(ordered) if skip is None else len(ordered) - 1
    gap = n if skip is None else skip  # from here on, indices shift by one

    def at(j: int) -> int:
        return ordered[j if j < gap else j + 1]

    half = n // 2
    return at(half) if n % 2 else (at(half - 1) + at(half)) / 2


class ReportGuard:
    """Validates inbound control messages and quarantines liars."""

    def __init__(self) -> None:
        self._records: Dict[Key, _ReceiverRecord] = {}
        self._last_seq: Dict[Key, int] = {}
        #: Rejection reason -> count (duplicates, malformed fields, ...).
        self.rejections: Dict[str, int] = {}
        #: Strike reason -> count.
        self.strike_counts: Dict[str, int] = {}
        self.quarantines = 0
        self.releases = 0
        #: ``(time, kind, key, detail)`` log of strikes and transitions.
        self.events: List[Tuple[float, str, Key, str]] = []
        #: Optional :class:`~repro.obs.bus.EventBus`; the owning controller
        #: assigns its scheduler's bus each tick (the guard itself has no
        #: scheduler reference).
        self.bus: Optional[Any] = None

    def _emit(self, now: float, kind: str, key: Key, reason: str) -> None:
        bus = self.bus
        if bus is not None:
            bus.emit(
                f"guard.{kind}", now,
                receiver=key[1], session=key[0], reason=reason,
                strikes=self._records[key].strikes,
            )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit_register(self, key: Key, msg: Any, *, known_session: bool) -> Optional[str]:
        """Validate a ``Register``; returns a rejection reason or None."""
        reason = None
        if not known_session:
            reason = "unknown_session"
        elif msg.receiver_id is None:
            reason = "malformed_register"
        else:
            reason = self._check_seq(key, msg.seq)
        if reason is not None:
            self._reject(reason)
        return reason

    def admit_report(
        self,
        key: Key,
        msg: Any,
        schedule: Any,
        *,
        registered: bool,
        now: float,
        last_suggestion: Optional[int] = None,
    ) -> Optional[str]:
        """Run the full admission pipeline for a ``Report``.

        Returns None when the report is accepted (and scored), otherwise the
        rejection reason.  ``schedule`` is the session's
        :class:`~repro.media.layers.LayerSchedule` (None = unknown session).
        """
        reason = self._validate_report(msg, schedule, registered)
        if reason is None:
            reason = self._check_seq(key, msg.seq)
        if reason is not None:
            self._reject(reason)
            return reason
        self._score_report(key, msg, schedule, now, last_suggestion)
        return None

    def note_malformed(self) -> None:
        """Count a control packet whose payload is not a known message."""
        self._reject("unknown_payload")

    def _validate_report(self, msg: Any, schedule: Any, registered: bool) -> Optional[str]:
        if schedule is None:
            return "unknown_session"
        if not (_finite_number(msg.loss_rate) and 0.0 <= msg.loss_rate <= 1.0):
            return "loss_out_of_range"
        if not (_finite_number(msg.bytes) and msg.bytes >= 0.0):
            return "bad_bytes"
        if not (
            isinstance(msg.level, int)
            and not isinstance(msg.level, bool)
            and 0 <= msg.level <= schedule.n_layers
        ):
            return "level_out_of_schedule"
        if not (_finite_number(msg.t0) and _finite_number(msg.t1) and msg.t0 <= msg.t1):
            return "bad_interval"
        if not registered:
            return "unregistered"
        return None

    def _check_seq(self, key: Key, seq: Any) -> Optional[str]:
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
            return "bad_seq"
        last = self._last_seq.get(key, 0)
        if seq <= last:
            return "stale_seq"
        self._last_seq[key] = seq
        return None

    def _reject(self, reason: str) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # Behavioural scoring
    # ------------------------------------------------------------------
    def _record(self, key: Key) -> _ReceiverRecord:
        rec = self._records.get(key)
        if rec is None:
            rec = self._records[key] = _ReceiverRecord()
        return rec

    def _strike(self, key: Key, reason: str, now: float) -> None:
        rec = self._record(key)
        rec.strikes = min(rec.strikes + 1.0, MAX_STRIKES)
        rec.struck_since_audit = True
        self.strike_counts[reason] = self.strike_counts.get(reason, 0) + 1
        self.events.append((now, "strike", key, reason))
        self._emit(now, "strike", key, reason)
        if rec.quarantined_at is None and rec.strikes >= STRIKE_THRESHOLD:
            rec.quarantined_at = now
            rec.clean_streak = 0
            self.quarantines += 1
            self.events.append((now, "quarantine", key, reason))
            self._emit(now, "quarantine", key, reason)

    def _score_report(
        self,
        key: Key,
        msg: Any,
        schedule: Any,
        now: float,
        last_suggestion: Optional[int],
    ) -> None:
        dt = msg.t1 - msg.t0
        expected_bits = schedule.cumulative(msg.level) * dt
        if expected_bits >= MIN_EXPECTED_BITS:
            implied = min(max(1.0 - msg.bytes * 8.0 / expected_bits, 0.0), 1.0)
            if msg.loss_rate - implied > CONSISTENCY_TOLERANCE:
                self._strike(key, "inconsistent_loss", now)
        if last_suggestion is not None and msg.level > last_suggestion + DISOBEY_MARGIN:
            self._strike(key, "disobedience", now)

    # ------------------------------------------------------------------
    # Per-tick audit
    # ------------------------------------------------------------------
    def audit(
        self,
        now: float,
        session_reports: Dict[Any, Dict[Key, Tuple[Any, float, Any]]],
        trees: Dict[Any, Any],
        fresh_within: float,
    ) -> None:
        """Run the sibling-outlier pass, then decay/rehabilitate.

        ``session_reports`` maps session id to ``{key: (Report, arrived_at,
        node)}``: the controller's latest accepted report per receiver and
        the node it registered at.  ``trees`` holds the session trees
        discovered this tick; every report whose node has a parent there is
        audited against the others under that parent.  Reports older than
        ``fresh_within`` are ignored entirely — a silent receiver must not be
        scored against (or contribute to) live sibling statistics.
        """
        for sid, tree in trees.items():
            reports = session_reports.get(sid)
            if not reports:
                continue
            by_parent: Dict[Any, List[Tuple[Key, Any]]] = {}
            for key, (rep, arrived, node) in reports.items():
                if now - arrived > fresh_within:
                    continue
                parent = tree.parent.get(node)
                if parent is None:
                    continue
                by_parent.setdefault(parent, []).append((key, rep))
            for siblings in by_parent.values():
                if len(siblings) <= MIN_SIBLINGS:
                    continue
                self._audit_siblings(siblings, now)
        self._settle(now)

    def _audit_siblings(self, siblings: List[Tuple[Key, Any]], now: float) -> None:
        """Strike each sibling that under-reports against the *other*
        unquarantined siblings (keys are distinct: one report per receiver).

        One summary of the unquarantined set — its two smallest losses and
        its sorted levels — yields every sibling's leave-one-out minimum and
        median, so the pass is O(k log k) rather than a rebuilt list per
        sibling.  A strike that quarantines a sibling mid-pass changes what
        the later ones are compared against, so the summary is redone then.
        """
        current = False
        for key, rep in siblings:
            if not current:
                active = [r for k, r in siblings if not self.is_quarantined(k)]
                losses = nsmallest(2, (r.loss_rate for r in active))
                levels = sorted(r.level for r in active)
                current = True
            own = not self.is_quarantined(key)  # is ``rep`` one of ``active``?
            n_others = len(levels) - own
            if n_others < MIN_SIBLINGS:
                continue
            # Minimum, not median: a lie-high sibling can inflate an average
            # and frame honest zero-loss receivers, but cannot raise the
            # minimum past another honest sibling.
            floor_loss = losses[1] if own and rep.loss_rate == losses[0] else losses[0]
            med_level = _median_without(levels, bisect_left(levels, rep.level) if own else None)
            # Level gate: subscribing fewer layers than the siblings is a
            # legitimate reason to see less loss than they do.  The claim
            # must also be near-zero in its own right — honest loss ratios
            # differ across levels, honest "no loss at all" during shared
            # congestion does not happen.
            if (
                rep.level >= med_level
                and rep.loss_rate < LOW_LOSS_FLOOR
                and floor_loss - rep.loss_rate > OUTLIER_MARGIN
            ):
                self._strike(key, "under_report", now)
                if own and self.is_quarantined(key):
                    current = False

    def _settle(self, now: float) -> None:
        """Decay clean receivers and release rehabilitated ones."""
        for key, rec in self._records.items():
            if rec.struck_since_audit:
                rec.struck_since_audit = False
                rec.clean_streak = 0
                continue
            rec.strikes = max(0.0, rec.strikes - STRIKE_DECAY)
            rec.clean_streak += 1
            if rec.quarantined_at is not None and rec.clean_streak >= REHAB_INTERVALS:
                rec.quarantined_at = None
                rec.strikes = 0.0
                rec.clean_streak = 0
                self.releases += 1
                self.events.append((now, "release", key, "rehabilitated"))
                self._emit(now, "release", key, "rehabilitated")

    # ------------------------------------------------------------------
    # Queries / lifecycle
    # ------------------------------------------------------------------
    def is_quarantined(self, key: Key) -> bool:
        rec = self._records.get(key)
        return rec is not None and rec.quarantined_at is not None

    def quarantined_keys(self) -> List[Key]:
        """Keys of the quarantined receivers, in the order first struck."""
        return [k for k, r in self._records.items() if r.quarantined_at is not None]

    def strikes(self, key: Key) -> float:
        rec = self._records.get(key)
        return rec.strikes if rec is not None else 0.0

    def forget(self, key: Key) -> None:
        """Drop all state for a departed receiver (registration expiry)."""
        self._records.pop(key, None)
        self._last_seq.pop(key, None)

    def summary(self) -> dict:
        """JSON-friendly counters for experiment reports."""
        return {
            "rejections": dict(self.rejections),
            "strikes": dict(self.strike_counts),
            "quarantines": self.quarantines,
            "releases": self.releases,
            "quarantined": sorted(map(str, self.quarantined_keys())),
            "events": [
                {"time": t, "kind": kind, "key": list(map(str, key)), "detail": detail}
                for (t, kind, key, detail) in self.events
            ],
        }
