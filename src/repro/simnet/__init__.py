"""Discrete-event network simulator substrate.

This package replaces ns-2 (which the paper used) with a pure-Python
equivalent: a deterministic event scheduler (:mod:`~repro.simnet.engine`),
store-and-forward links with drop-tail queues (:mod:`~repro.simnet.link`,
:mod:`~repro.simnet.queues`), forwarding nodes (:mod:`~repro.simnet.node`),
and topology/routing helpers (:mod:`~repro.simnet.topology`).
"""

from .engine import Event, Scheduler, SimulationError
from .link import Link, LinkStats
from .node import Node, NodeStats
from .packet import CONTROL, DATA, DEFAULT_PACKET_SIZE, Packet
from .queues import DropTailQueue, QueueStats, REDQueue
from .rng import RngRegistry
from .topology import Network, NoPathError
from .tracing import SeriesTrace, StepTrace

__all__ = [
    "Event",
    "Scheduler",
    "SimulationError",
    "Link",
    "LinkStats",
    "Node",
    "NodeStats",
    "Packet",
    "DATA",
    "CONTROL",
    "DEFAULT_PACKET_SIZE",
    "DropTailQueue",
    "REDQueue",
    "QueueStats",
    "RngRegistry",
    "Network",
    "NoPathError",
    "StepTrace",
    "SeriesTrace",
]
