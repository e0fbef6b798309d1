"""The inter-domain wire of the federation exchange.

Every :class:`~repro.control.messages.SubtreeSummary` and
:class:`~repro.control.messages.FederationAdvice` crosses the domain
boundary through an :class:`InterDomainChannel` — there is no other wire.
Unimpaired, the channel draws no randomness and delivers at once.  Impaired,
every send draws from a seeded per-``(domain, direction)`` RNG stream and
either delivers immediately, drops the message, delays it by a whole number
of lockstep rounds (it then arrives late, out of order with — and usually
fenced off by — fresher traffic), or duplicates it one round later.  A
*partitioned* domain exchanges nothing in either direction until healed.

Determinism model: each ``(domain, direction)`` pair owns one
:class:`~repro.simnet.rng.Pcg64` stream, seeded by
:func:`~repro.simnet.rng.stream_seed` of ``"fedchan/<domain>/<direction>"``
and kept for the channel's life, so adding or removing domains never
perturbs a sibling's draws; all draws happen at the round barrier in
sorted-domain order, so same-seed runs see identical channel behaviour.
Impairments change only via :class:`~repro.faults.plan.FaultPlan` events,
which fire at deterministic barrier times.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..simnet.rng import Pcg64, stream_seed

__all__ = ["ChannelImpairment", "InterDomainChannel"]


class ChannelImpairment:
    """Loss/delay/duplication parameters for one scope (global or domain)."""

    __slots__ = ("loss", "duplicate", "delay_rounds")

    def __init__(
        self,
        loss: float = 0.0,
        duplicate: float = 0.0,
        delay_rounds: int = 0,
    ):
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        if not 0.0 <= duplicate <= 1.0:
            raise ValueError(f"duplicate must be in [0, 1], got {duplicate}")
        if delay_rounds < 0:
            raise ValueError(f"delay_rounds must be >= 0, got {delay_rounds}")
        self.loss = float(loss)
        self.duplicate = float(duplicate)
        self.delay_rounds = int(delay_rounds)

    @property
    def perfect(self) -> bool:
        return self.loss == 0.0 and self.duplicate == 0.0 and self.delay_rounds == 0


class InterDomainChannel:
    """Seeded lossy/delaying/duplicating wire between shards and coordinator.

    ``send_up`` / ``send_down`` return an outcome string the federation run
    acts on: ``"delivered"`` (hand the message over now), ``"lost"``
    (silently dropped — the sender sees no ack and retries or times out) or
    ``"delayed"`` (queued; :meth:`due` surfaces it at a later round barrier,
    where epoch/round fencing decides whether it is still useful).  Byte
    accounting stays with the caller — the channel models the wire, not the
    budget.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        #: One stream per ``"fedchan/<domain>/<direction>"``, made on first use.
        self._streams: Dict[str, Pcg64] = {}
        #: Domains currently cut off in both directions.
        self.partitioned: Set[str] = set()
        self._global = ChannelImpairment()
        self._per_domain: Dict[str, ChannelImpairment] = {}
        # (due_round, seq, direction, domain, message); seq keeps ordering
        # deterministic when several messages land on the same round.
        self._pending: List[Tuple[int, int, str, str, Any]] = []
        self._seq = 0
        self.stats: Dict[str, int] = {
            "up_sent": 0, "up_delivered": 0, "up_lost": 0,
            "up_delayed": 0, "up_duplicated": 0, "up_partitioned": 0,
            "down_sent": 0, "down_delivered": 0, "down_lost": 0,
            "down_delayed": 0, "down_duplicated": 0, "down_partitioned": 0,
            "dead_coordinator_drops": 0,
        }

    # ------------------------------------------------------------------
    # Impairment control (driven by FaultPlan events at round barriers)
    # ------------------------------------------------------------------
    def set_impairment(
        self,
        loss: float = 0.0,
        duplicate: float = 0.0,
        delay_rounds: int = 0,
        domain: Optional[Any] = None,
    ) -> None:
        """Impair the whole mesh (``domain=None``) or one domain's links."""
        imp = ChannelImpairment(loss, duplicate, delay_rounds)
        if domain is None:
            self._global = imp
        else:
            self._per_domain[str(domain)] = imp

    def partition(self, domain: Any) -> None:
        """Cut the domain off entirely (both directions) until healed."""
        self.partitioned.add(str(domain))

    def heal(self, domain: Any) -> None:
        self.partitioned.discard(str(domain))

    def impairment_for(self, domain: Any) -> ChannelImpairment:
        return self._per_domain.get(str(domain), self._global)

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------
    def _send(self, direction: str, domain: Any, msg: Any, round_no: int) -> str:
        name = str(domain)
        self.stats[f"{direction}_sent"] += 1
        if name in self.partitioned:
            self.stats[f"{direction}_partitioned"] += 1
            return "lost"
        imp = self.impairment_for(name)
        if imp.perfect:
            self.stats[f"{direction}_delivered"] += 1
            return "delivered"
        key = f"fedchan/{name}/{direction}"
        rng = self._streams.get(key)
        if rng is None:
            rng = self._streams[key] = Pcg64(stream_seed(self._seed, key))
        if imp.loss > 0.0 and float(rng.random()) < imp.loss:
            self.stats[f"{direction}_lost"] += 1
            return "lost"
        if imp.delay_rounds > 0:
            hold = int(rng.integers(0, imp.delay_rounds + 1))
            if hold > 0:
                self._queue(round_no + hold, direction, name, msg)
                self.stats[f"{direction}_delayed"] += 1
                return "delayed"
        if imp.duplicate > 0.0 and float(rng.random()) < imp.duplicate:
            self._queue(round_no + 1, direction, name, msg)
            self.stats[f"{direction}_duplicated"] += 1
        self.stats[f"{direction}_delivered"] += 1
        return "delivered"

    def send_up(self, domain: Any, summary: Any, round_no: int) -> str:
        """One shard->coordinator summary attempt; returns the outcome."""
        return self._send("up", domain, summary, round_no)

    def send_down(self, domain: Any, advice: Any, round_no: int) -> str:
        """One coordinator->shard advice send; returns the outcome."""
        return self._send("down", domain, advice, round_no)

    def _queue(self, due_round: int, direction: str, domain: str, msg: Any) -> None:
        self._seq += 1
        self._pending.append((due_round, self._seq, direction, domain, msg))

    def due(self, round_no: int) -> List[Tuple[str, str, Any]]:
        """Drain in-flight messages that arrive by ``round_no``, in order.

        Messages whose domain is partitioned when they would arrive are
        dropped — they were in flight across the cut.
        """
        ready = sorted(
            item for item in self._pending if item[0] <= round_no
        )
        self._pending = [item for item in self._pending if item[0] > round_no]
        out: List[Tuple[str, str, Any]] = []
        for _due, _seq, direction, domain, msg in ready:
            if domain in self.partitioned:
                self.stats[f"{direction}_partitioned"] += 1
                continue
            out.append((direction, domain, msg))
        return out

    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        return len(self._pending)

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly stats snapshot (deterministic key order)."""
        out: Dict[str, Any] = {k: self.stats[k] for k in sorted(self.stats)}
        out["in_flight"] = self.in_flight()
        out["partitioned"] = sorted(self.partitioned)
        return out
