"""Multicast group address allocation.

Group addresses are small integers.  In the layered-multicast model each
*layer* of each *session* is carried on its own group address (paper §III:
"a multicast session refers to a set of layers being transmitted on different
multicast addresses").
"""

from __future__ import annotations

import itertools

__all__ = ["GroupAllocator"]


class GroupAllocator:
    """Hands out unique group addresses: 1, 2, 3, ..."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self.allocated = []

    def allocate(self) -> int:
        """Return a fresh, never-before-allocated group address."""
        g = next(self._counter)
        self.allocated.append(g)
        return g
