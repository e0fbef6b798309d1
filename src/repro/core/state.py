"""Persistent controller-side state carried between algorithm intervals.

TopoSense's decision table needs, per node and session: the congestion states
of the last three intervals, the bytes received in the last two intervals,
and the supply granted in the last two intervals.  Back-off timers for
dropped layers are kept per ``(session, node, layer)`` so the whole subtree
below the node honors them (this is how receivers are coordinated).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

__all__ = ["NodeState", "ControllerState"]


class NodeState:
    """Per-(session, node) rolling history."""

    __slots__ = (
        "cong_hist", "bytes_hist", "supply_hist", "level_hist",
        "last_reduce_at", "smoothed_loss",
    )

    def __init__(self) -> None:
        # Oldest-first lists, truncated to the window the table needs.
        self.cong_hist: list = []  # last 2 *previous* congestion states (T0, T1)
        self.bytes_hist: list = []  # bytes of the last 1 previous interval (T0-T1)
        self.supply_hist: list = []  # supply granted in the last 2 intervals
        self.level_hist: list = []  # subscription level of the last interval
        self.last_reduce_at: float = float("-inf")  # time of last reduce action
        self.smoothed_loss: Optional[float] = None  # EWMA loss (when enabled)

    # -- congestion -----------------------------------------------------
    def history_bits(self, current: bool) -> int:
        """3-bit Table I key: T0 (oldest) in bit 2 ... current in bit 0."""
        padded = [False] * (2 - len(self.cong_hist)) + self.cong_hist
        return (int(padded[0]) << 2) | (int(padded[1]) << 1) | int(current)

    def push_congestion(self, current: bool) -> None:
        """Shift the window after the interval's states are computed."""
        self.cong_hist.append(current)
        if len(self.cong_hist) > 2:
            self.cong_hist.pop(0)

    # -- bytes ----------------------------------------------------------
    @property
    def prev_bytes(self) -> Optional[float]:
        """Bytes received during the older interval [T0,T1], if known."""
        return self.bytes_hist[-1] if self.bytes_hist else None

    def push_bytes(self, value: float) -> None:
        """Record the current interval's bytes (becomes prev next time)."""
        self.bytes_hist.append(value)
        if len(self.bytes_hist) > 1:
            self.bytes_hist.pop(0)

    # -- level -----------------------------------------------------------
    def level_confirmed(self, level: int, n: int) -> bool:
        """True when the last ``n`` reports were all exactly at ``level``.

        Gate for probing the next layer: the receiver must have *held* the
        level long enough for its loss evidence to be trustworthy.
        """
        if len(self.level_hist) < n:
            return False
        return all(l == level for l in self.level_hist[-n:])

    def push_level(self, level: int) -> None:
        """Record the level reported this interval (keeps a short window)."""
        self.level_hist.append(level)
        if len(self.level_hist) > 4:
            self.level_hist.pop(0)

    # -- supply ----------------------------------------------------------
    @property
    def supply_old(self) -> Optional[float]:
        """Supply (bits/s) granted for the older interval [T0,T1]."""
        return self.supply_hist[0] if len(self.supply_hist) == 2 else None

    @property
    def supply_recent(self) -> Optional[float]:
        """Supply (bits/s) granted for the recent interval [T1,T2]."""
        return self.supply_hist[-1] if self.supply_hist else None

    def push_supply(self, value: float) -> None:
        """Record the supply granted at the end of this interval."""
        self.supply_hist.append(value)
        if len(self.supply_hist) > 2:
            self.supply_hist.pop(0)


class ControllerState:
    """All persistent TopoSense state (everything except the capacity
    estimator, which keeps its own per-link records)."""

    def __init__(self) -> None:
        self._nodes: Dict[Tuple[Any, Any], NodeState] = {}
        self._backoffs: Dict[Tuple[Any, Any, int], float] = {}
        self.interval_index = 0

    # ------------------------------------------------------------------
    def node(self, session_id: Any, node: Any) -> NodeState:
        """The rolling history for ``(session, node)``, created on demand."""
        key = (session_id, node)
        st = self._nodes.get(key)
        if st is None:
            st = self._nodes[key] = NodeState()
        return st

    # ------------------------------------------------------------------
    # Back-off timers
    # ------------------------------------------------------------------
    def set_backoff(self, session_id: Any, node: Any, layer: int, expiry: float) -> None:
        """Forbid layer ``layer`` in the subtree of ``node`` until ``expiry``.

        An existing later expiry is kept (timers never shorten).
        """
        key = (session_id, node, layer)
        self._backoffs[key] = max(self._backoffs.get(key, 0.0), expiry)

    def is_backed_off(
        self, session_id: Any, path_nodes: Iterable[Any], layer: int, now: float
    ) -> bool:
        """True when any node on ``path_nodes`` holds a live timer for the layer."""
        for node in path_nodes:
            expiry = self._backoffs.get((session_id, node, layer))
            if expiry is not None and expiry > now:
                return True
        return False

    def prune_backoffs(self, now: float) -> None:
        """Drop expired timers (called periodically to bound memory)."""
        dead = [k for k, expiry in self._backoffs.items() if expiry <= now]
        for k in dead:
            del self._backoffs[k]
