"""Controller-agent architecture: session descriptors, wire messages,
topology discovery (with staleness), the controller/receiver agents, and the
report-validation/quarantine guard.
"""

from .agent import ControllerAgent, ReceiverAgent
from .discovery import TopologyDiscovery
from .guard import GuardConfig, ReportGuard
from .messages import (
    CONTROL_PORT,
    FederationAdvice,
    Register,
    RegisterAck,
    Report,
    SubtreeSummary,
    Suggestion,
)
from .session import SessionDescriptor

__all__ = [
    "ControllerAgent",
    "ReceiverAgent",
    "TopologyDiscovery",
    "SessionDescriptor",
    "Register",
    "RegisterAck",
    "Report",
    "Suggestion",
    "SubtreeSummary",
    "FederationAdvice",
    "CONTROL_PORT",
    "GuardConfig",
    "ReportGuard",
]
