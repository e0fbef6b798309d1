"""Session descriptors.

A :class:`SessionDescriptor` is the advertised description of a layered
multicast session: its id, source, one group address per layer, and the
advertised layer schedule.  The paper assumes this information is public
("the average bandwidth of each layer is known beforehand ... advertised
along with the multicast address of the layer"); sources, receivers and the
controller agent all work from the same descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from ..media.layers import LayerSchedule

__all__ = ["SessionDescriptor"]


@dataclass(frozen=True)
class SessionDescriptor:
    """Advertised description of one layered multicast session."""

    session_id: Any
    source: Any
    groups: Tuple[int, ...]
    schedule: LayerSchedule

    def __post_init__(self) -> None:
        if len(self.groups) != self.schedule.n_layers:
            raise ValueError(
                f"session {self.session_id!r}: {len(self.groups)} groups for "
                f"{self.schedule.n_layers} layers"
            )

    @property
    def n_layers(self) -> int:
        """Number of layers in the session."""
        return self.schedule.n_layers
