"""Input record types exchanged between the control plane and the
TopoSense core.  The core sees leaves, never receivers: the control agent
decides which receiver speaks for each leaf (DESIGN.md §7) and
:meth:`~repro.core.toposense.TopoSense.update` returns one level per
``(session_id, leaf)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from ..media.layers import LayerSchedule
from .session_topology import SessionTree

__all__ = ["LeafLevels", "ReceiverReport", "SessionInput"]

#: What an algorithm's ``update`` returns: a level per ``(session_id, leaf)``.
LeafLevels = Dict[Tuple[Any, Any], int]


@dataclass
class ReceiverReport:
    """What the receiver speaking for a leaf tells the controller about the
    last interval.

    Mirrors the paper's controller inputs: "Receiver packet loss rates" and
    "Number of bytes received at leaf nodes", plus the receiver's current
    subscription level (needed to interpret demand).
    """

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

    ``reports`` is keyed by leaf node.  A leaf with no entry has no usable
    report this interval (its receiver has not reported as of the cutoff,
    or is quarantined, or its report was fenced); the algorithm then treats
    the leaf as reporting nothing, not as reporting zero loss.
    """

    tree: SessionTree
    schedule: LayerSchedule
    reports: Dict[Any, ReceiverReport] = field(default_factory=dict)

    @property
    def session_id(self) -> Any:
        """Shortcut to the tree's session id."""
        return self.tree.session_id
