"""Input/output record types exchanged between the control plane and the
TopoSense core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Tuple

from ..media.layers import LayerSchedule
from .session_topology import SessionTree

__all__ = ["ReceiverReport", "SessionInput", "SuggestionSet"]


@dataclass
class ReceiverReport:
    """What one receiver tells the controller about the last interval.

    Mirrors the paper's controller inputs: "Receiver packet loss rates" and
    "Number of bytes received at leaf nodes", plus the receiver's current
    subscription level (needed to interpret demand).
    """

    receiver_id: Any
    loss_rate: float
    bytes: float
    level: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0,1], got {self.loss_rate}")
        if self.bytes < 0:
            raise ValueError("bytes must be >= 0")
        if self.level < 0:
            raise ValueError("level must be >= 0")


@dataclass
class SessionInput:
    """One session's per-interval input to :class:`~repro.core.toposense.TopoSense`.

    ``reports`` is keyed by receiver id; the control agent fills in its most
    recent report for receivers whose packets were lost.
    """

    tree: SessionTree
    schedule: LayerSchedule
    reports: Dict[Any, ReceiverReport] = field(default_factory=dict)

    @property
    def session_id(self) -> Any:
        """Shortcut to the tree's session id."""
        return self.tree.session_id


@dataclass
class SuggestionSet:
    """The algorithm's output: suggested level per (session, receiver)."""

    levels: Dict[tuple, int] = field(default_factory=dict)

    def items(self) -> Iterable[Tuple[tuple, int]]:
        """Iterate ``((session_id, receiver_id), level)`` pairs."""
        return self.levels.items()

    def __len__(self) -> int:
        return len(self.levels)
