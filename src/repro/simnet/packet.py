"""Packet representation.

Packets are the unit of work in the simulator; millions are created per run,
so the class uses ``__slots__`` and plain attributes (no dataclass machinery)
to keep the hot path allocation-light, per the HPC guides.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Packet", "DATA", "CONTROL", "DEFAULT_PACKET_SIZE"]

#: Packet kind tags.  Plain strings interned by the module; comparison is
#: identity-fast and the trace output stays human readable.
DATA = "data"
CONTROL = "control"

#: The paper uses 1000-byte packets throughout its evaluation (section IV).
DEFAULT_PACKET_SIZE = 1000


class Packet:
    """A network packet.

    Parameters
    ----------
    src:
        Name of the originating node.
    dst:
        Unicast destination node name, or ``None`` for multicast packets.
    group:
        Multicast group address (int), or ``None`` for unicast packets.
    size:
        Size in bytes (headers included); defaults to the paper's 1000 B.
    seq:
        Per-flow sequence number; receivers detect losses from gaps.
    kind:
        ``DATA`` or ``CONTROL``.
    port:
        Demultiplexing key for application delivery at the destination.
    payload:
        Arbitrary application payload (e.g. a control message object).  The
        simulator never inspects it.
    """

    __slots__ = (
        "src",
        "dst",
        "group",
        "size",
        "seq",
        "kind",
        "port",
        "payload",
    )

    def __init__(
        self,
        src: Any,
        dst: Any = None,
        group: Optional[int] = None,
        size: int = DEFAULT_PACKET_SIZE,
        seq: int = 0,
        kind: str = DATA,
        port: Optional[str] = None,
        payload: Any = None,
    ):
        if (dst is None) == (group is None):
            raise ValueError("packet must have exactly one of dst (unicast) or group (multicast)")
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.src = src
        self.dst = dst
        self.group = group
        self.size = size
        self.seq = seq
        self.kind = kind
        self.port = port
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        addr = f"->{self.dst}" if self.group is None else f"g{self.group}"
        return f"<Packet {self.kind} {self.src}{addr} seq={self.seq} {self.size}B>"
