"""Network nodes: forwarding, local application delivery.

A :class:`Node` is a router and/or host.  It holds

* outgoing :class:`~repro.simnet.link.Link` objects keyed by neighbor name,
* the owning :class:`~repro.simnet.topology.Network`, which answers every
  unicast next hop from its shortest-path maps
  (:meth:`~repro.simnet.topology.Network.next_hop`) — the node keeps no
  routing state of its own,
* a multicast forwarding table ``group -> tuple of downstream neighbor names``
  (maintained by :class:`repro.multicast.manager.MulticastManager`), and
* application handlers: per-port unicast handlers and per-group multicast
  handlers.

**Forwarding entries have one write path**, :meth:`Node.set_forwarding`;
nothing else assigns into or deletes from ``mcast_fwd``.  Together with
:meth:`Node.add_group_handler` it is where a group gains its first listener
on a node, and that moment is announced to the callbacks registered with
:meth:`Node.add_group_waker` — a :class:`~repro.media.source.LayeredSource`
keeps no heap entries for a layer nobody hears and relies on being told
when that ends.

Routers in the paper's architecture do **no** congestion-control computation;
accordingly the node only forwards.  All intelligence lives in application
objects attached to nodes (sources, receivers, the controller agent).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Scheduler
    from .link import Link
    from .topology import Network

__all__ = ["Node", "NodeStats"]

Handler = Callable[[Packet], None]


class NodeStats:
    """Per-node drop tally: packets with no route or handler."""

    __slots__ = ("no_route",)

    def __init__(self) -> None:
        self.no_route = 0


class Node:
    """A router/host in the simulated network."""

    def __init__(self, sched: "Scheduler", name: Any, network: "Network"):
        self.sched = sched
        self.name = name
        self.network = network
        self.links: Dict[Any, "Link"] = {}  # neighbor name -> outgoing link
        #: group -> downstream neighbours, in ``links`` insertion order
        self.mcast_fwd: Dict[int, Tuple[Any, ...]] = {}
        #: group -> local handlers.  A tuple that add/remove replace, so a
        #: delivery iterates a snapshot a handler may unsubscribe from.
        self.group_handlers: Dict[int, Tuple[Handler, ...]] = {}
        self.group_wakers: Dict[int, List[Callable[[], None]]] = {}
        self.port_handlers: Dict[str, Handler] = {}
        self.stats = NodeStats()

    # ------------------------------------------------------------------
    # Application attachment
    # ------------------------------------------------------------------
    def bind_port(self, port: str, handler: Handler) -> None:
        """Register ``handler`` for unicast packets addressed to ``port``."""
        if port in self.port_handlers:
            raise ValueError(f"port {port!r} already bound on node {self.name!r}")
        self.port_handlers[port] = handler

    def unbind_port(self, port: str) -> None:
        """Remove a port binding (no-op if absent)."""
        self.port_handlers.pop(port, None)

    def add_group_handler(self, group: int, handler: Handler) -> None:
        """Deliver local copies of packets for ``group`` to ``handler``."""
        handlers = self.group_handlers.get(group)
        if handlers is not None:
            self.group_handlers[group] = handlers + (handler,)
            return
        self.group_handlers[group] = (handler,)
        if group not in self.mcast_fwd:
            self._wake(group)

    def remove_group_handler(self, group: int, handler: Handler) -> None:
        """Stop delivering ``group`` packets to ``handler``."""
        handlers = self.group_handlers.get(group)
        if handlers and handler in handlers:
            i = handlers.index(handler)
            rest = handlers[:i] + handlers[i + 1:]
            if rest:
                self.group_handlers[group] = rest
            else:
                del self.group_handlers[group]

    def set_forwarding(self, group: int, neighbors: Optional[Set[Any]]) -> None:
        """Forward ``group`` to ``neighbors``; empty or ``None`` removes the
        entry.  The one place ``mcast_fwd`` is written.

        The entry is a tuple of the neighbours that have a link, in the order
        the links were added, so a packet is copied onto its child links in
        an order that does not depend on string hashing."""
        if not neighbors:
            self.mcast_fwd.pop(group, None)
            return
        heard = group in self.mcast_fwd or group in self.group_handlers
        self.mcast_fwd[group] = tuple(n for n in self.links if n in neighbors)
        if not heard:
            self._wake(group)

    def add_group_waker(self, group: int, waker: Callable[[], None]) -> None:
        """Call ``waker()`` whenever ``group`` gains its first listener here
        (a forwarding entry or a local handler where there was neither)."""
        self.group_wakers.setdefault(group, []).append(waker)

    def _wake(self, group: int) -> None:
        for waker in self.group_wakers.get(group, ()):
            waker()

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet, from_link: Optional["Link"] = None) -> None:
        """Handle a packet arriving from ``from_link`` (None = locally sent)."""
        if pkt.group is not None:
            self._handle_multicast(pkt, from_link)
        else:
            self._handle_unicast(pkt)

    def send(self, pkt: Packet) -> None:
        """Originate a packet from an application on this node."""
        if pkt.group is not None:
            self._handle_multicast(pkt, None)
        else:
            self._handle_unicast(pkt)

    def _handle_multicast(self, pkt: Packet, from_link: Optional["Link"]) -> None:
        group = pkt.group
        handlers = self.group_handlers.get(group)
        if handlers:
            for handler in handlers:
                handler(pkt)
        out = self.mcast_fwd.get(group)
        if not out:
            return
        incoming = from_link.src.name if from_link is not None else None
        links = self.links
        for neighbor in out:
            if neighbor != incoming:
                links[neighbor].send(pkt)

    def _handle_unicast(self, pkt: Packet) -> None:
        if pkt.dst == self.name:
            handler = self.port_handlers.get(pkt.port)
            if handler is not None:
                handler(pkt)
            else:
                self.stats.no_route += 1
            return
        hop = self.network.next_hop(self.name, pkt.dst)
        if hop is None:
            self.stats.no_route += 1
            return
        self.links[hop].send(pkt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name!r} degree={len(self.links)}>"
