"""The thin inter-domain tier: merge subtree summaries, never reports.

The :class:`FederationCoordinator` is deliberately small.  It stores **one**
latest :class:`~repro.control.messages.SubtreeSummary` per
``(session, domain)`` pair — its memory is O(domains × sessions) no matter
how many receivers the federation serves — and merges them into one
session-level :class:`~repro.control.messages.FederationAdvice` per round.

Structural guarantees backing the scaling and robustness claims:

* **No per-receiver state.**  :meth:`receive` type-checks its input and
  rejects anything that is not a ``SubtreeSummary`` (a ``Report`` or
  ``Register`` smuggled upward raises and is counted in
  ``type_rejected``); nothing receiver-granular ever enters this tier.
* **Order-independent merging.**  :meth:`merge` folds summaries in sorted
  ``(session, domain)`` order regardless of arrival order, so delayed,
  retried or duplicated summaries produce the same advice.
* **Monotone per-key rounds.**  A summary whose ``round`` is not newer
  than the stored one for its ``(session, domain)`` key is dropped and
  counted in ``stale_rejected`` — this absorbs the duplicates and
  reorderings a lossy inter-domain channel (and shard-side retries)
  produce, without any per-message bookkeeping.
* **Epoch fencing.**  Every advice carries the coordinator ``epoch``; a
  standby promoted by failover starts one epoch above its predecessor and
  :meth:`resume_from` warm-starts it from the replicated per-key summary
  store, so shards can reject anything the deposed coordinator still has
  in flight.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..control.messages import SUMMARY_SIZE, FederationAdvice, SubtreeSummary

__all__ = ["FederationCoordinator"]


class FederationCoordinator:
    """Root of the federation hierarchy: session-level layer advice."""

    def __init__(self, bus: Optional[Any] = None, epoch: int = 1) -> None:
        self.bus = bus
        #: Fencing token stamped on every advice; a failover standby is
        #: built with ``epoch = deposed.epoch + 1``.
        self.epoch = int(epoch)
        #: False once crashed: a dead coordinator neither ingests nor
        #: merges, and shards see their summary attempts go unacknowledged.
        self.alive = True
        # (str(session), str(domain)) -> latest summary; bounded by
        # domains x sessions, the federation's whole memory footprint.
        self._latest: Dict[Tuple[str, str], SubtreeSummary] = {}
        self.session_advice: Dict[Any, FederationAdvice] = {}
        self.summaries_received = 0
        #: Structurally invalid messages (non-SubtreeSummary) — the report
        #: isolation counter.
        self.type_rejected = 0
        #: Summaries older than the stored round for their key (retry
        #: duplicates, delayed copies arriving after fresher state).
        self.stale_rejected = 0
        self.merges = 0
        self.peak_tracked = 0
        #: Advice bytes sent down to shards (charged by the federation run).
        self.control_bytes_sent = 0

    # ------------------------------------------------------------------
    def receive(self, msg: Any) -> bool:
        """Ingest one subtree summary (the only message type allowed up).

        Returns True if the summary was stored, False if it was dropped as
        stale (older round than the stored summary for its key).
        """
        if not isinstance(msg, SubtreeSummary):
            self.type_rejected += 1
            raise TypeError(
                "federation coordinator accepts SubtreeSummary only, got "
                f"{type(msg).__name__} — per-receiver control traffic must "
                "terminate at the domain controller"
            )
        key = (str(msg.session_id), str(msg.domain))
        prev = self._latest.get(key)
        if prev is not None and prev.round >= msg.round:
            self.stale_rejected += 1
            if self.bus is not None:
                self.bus.emit(
                    "federation.stale", msg.issued_at,
                    tier="coordinator", reason="stale_round",
                    domain=msg.domain, session=msg.session_id,
                    round=msg.round, stored_round=prev.round,
                )
            return False
        self._latest[key] = msg
        self.summaries_received += 1
        self.peak_tracked = max(self.peak_tracked, len(self._latest))
        if self.bus is not None:
            self.bus.emit(
                "federation.summary", msg.issued_at,
                domain=msg.domain, session=msg.session_id,
                gateway=msg.gateway, receivers=msg.receiver_count,
                mean_loss=round(msg.mean_loss, 4),
                max_loss=round(msg.max_loss, 4),
                min_level=msg.min_level, max_level=msg.max_level,
                bottleneck_bps=round(msg.bottleneck_bps, 1),
                round=msg.round,
            )
        return True

    # ------------------------------------------------------------------
    def merge(self, now: float, round_no: int) -> List[FederationAdvice]:
        """Fold the latest summaries into per-session layer advice.

        Domains currently holding no registered receivers contribute their
        receiver count (zero) but not their layer fit — an empty domain
        must not drag the session ceiling to zero.  Advice is stamped with
        this coordinator's ``epoch`` and the lockstep ``round_no`` the
        merge ran at (the shard-side advice-age reference).
        """
        per_session: Dict[str, List[SubtreeSummary]] = {}
        for (sid_key, _domain), summary in sorted(self._latest.items()):
            per_session.setdefault(sid_key, []).append(summary)
        advices: List[FederationAdvice] = []
        for sid_key in sorted(per_session):
            summaries = per_session[sid_key]
            session_id = summaries[0].session_id
            populated = [s for s in summaries if s.receiver_count > 0]
            ceiling = max((s.max_level for s in populated), default=0)
            floor = min((s.min_level for s in populated), default=0)
            receiver_count = sum(s.receiver_count for s in summaries)
            bottlenecks = [
                s.bottleneck_bps for s in populated if s.bottleneck_bps > 0
            ]
            advice = FederationAdvice(
                session_id=session_id,
                ceiling=ceiling,
                floor=floor,
                receiver_count=receiver_count,
                bottleneck_bps=min(bottlenecks) if bottlenecks else 0.0,
                issued_at=now,
                epoch=self.epoch,
                round=round_no,
            )
            self.session_advice[session_id] = advice
            advices.append(advice)
            if self.bus is not None:
                self.bus.emit(
                    "federation.suggestion", now,
                    session=session_id, ceiling=ceiling, floor=floor,
                    receivers=receiver_count, domains=len(summaries),
                    bottleneck_bps=round(advice.bottleneck_bps, 1),
                    epoch=self.epoch, round=round_no,
                )
        self.merges += 1
        return advices

    # ------------------------------------------------------------------
    def replicated_summaries(self) -> Dict[Tuple[str, str], SubtreeSummary]:
        """Copy of the per-(session, domain) store — what a warm standby
        resumes from (the summaries are the coordinator's *only* durable
        state; counters are process-local)."""
        return dict(self._latest)

    def resume_from(
        self, summaries: Mapping[Tuple[str, str], SubtreeSummary]
    ) -> None:
        """Warm-start from a predecessor's replicated summary store."""
        self._latest.update(summaries)
        self.peak_tracked = max(self.peak_tracked, len(self._latest))

    # ------------------------------------------------------------------
    def tracked(self) -> int:
        """Summaries currently stored (== domains x sessions seen)."""
        return len(self._latest)

    def state_bytes(self) -> int:
        """Nominal wire-size of the stored state — the bounded-memory
        metric the federate sweep reports (scales with domains, not
        receivers)."""
        return len(self._latest) * SUMMARY_SIZE
