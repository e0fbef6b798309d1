"""Static (non-adaptive) controller baseline.

Suggests the same fixed level to every receiver forever — the "do nothing"
lower bound.  Receivers with less capacity than the fixed level suffer
sustained loss; receivers with more waste it.
"""

from __future__ import annotations

from typing import Sequence

from ..core.types import LeafLevels, SessionInput

__all__ = ["StaticController"]


class StaticController:
    """Drop-in algorithm that always suggests ``level``."""

    def __init__(self, level: int):
        if level < 0:
            raise ValueError("level must be >= 0")
        self.level = level

    def update(self, now: float, sessions: Sequence[SessionInput]) -> LeafLevels:
        """Suggest the fixed level for every leaf of every session."""
        out: LeafLevels = {}
        for si in sessions:
            lvl = min(self.level, si.schedule.n_layers)
            for leaf in si.tree.leaves:
                out[(si.session_id, leaf)] = lvl
        return out
