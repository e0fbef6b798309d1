"""IP multicast substrate: group addressing, membership with IGMP-style
graft/leave latency, and source-based distribution trees built by pluggable
:class:`~repro.multicast.builders.TreeBuilder` backends (shortest-path,
degree-bounded, protected-with-backup-branches).
"""

from .addressing import GroupAllocator
from .builders import (
    BUILDER_NAMES,
    DegreeBoundedBuilder,
    ProtectedTreeBuilder,
    SPTBuilder,
    TreeBuilder,
    make_builder,
)
from .manager import GroupState, MulticastManager, TreeSnapshot

__all__ = [
    "BUILDER_NAMES",
    "DegreeBoundedBuilder",
    "GroupAllocator",
    "GroupState",
    "MulticastManager",
    "ProtectedTreeBuilder",
    "SPTBuilder",
    "TreeBuilder",
    "TreeSnapshot",
    "make_builder",
]
