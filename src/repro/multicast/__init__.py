"""IP multicast substrate: group addressing, membership with IGMP-style
graft/leave latency, and source-based shortest-path distribution trees
(optionally protected by precomputed backup branches, see
:mod:`repro.multicast.builders`).
"""

from .addressing import GroupAllocator
from .builders import (
    BUILDER_NAMES,
    ProtectedTreeBuilder,
    SPTBuilder,
    TreeBuilder,
    make_builder,
)
from .manager import GroupState, MulticastManager

__all__ = [
    "BUILDER_NAMES",
    "GroupAllocator",
    "GroupState",
    "MulticastManager",
    "ProtectedTreeBuilder",
    "SPTBuilder",
    "TreeBuilder",
    "make_builder",
]
