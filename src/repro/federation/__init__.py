"""Federated multi-domain control plane (DESIGN.md §13).

The paper's Fig. 3 architecture — "multiple controller agents, each
concerned with one particular administrative domain" — implemented as a
real sharded subsystem:

* :func:`build_federated_views` describes each domain of the multi-domain
  star as a :class:`DomainView`, straight from the layout;
* :class:`DomainShard` runs one view as a standalone controller + simnet
  slice (seeded per-shard RNG streams, no state shared with siblings);
* :class:`~repro.control.messages.SubtreeSummary` aggregates cross the
  domain boundary on a fixed cadence;
* :class:`FederationCoordinator` merges them into session-level
  :class:`~repro.control.messages.FederationAdvice` without ever seeing a
  per-receiver report;
* :class:`FederatedSession` drives the lockstep rounds, and
  :func:`run_federate` sweeps domain count at fixed receiver population
  (``python -m repro federate``);
* :class:`InterDomainChannel` is the one wire every summary and advice
  crosses, and makes the exchange fault-injectable (seeded
  loss/delay/duplication, partitions); the coordinator fails over with
  epoch fencing, shards retry/timeout and decay ceilings past the
  bounded-staleness budget, and :func:`run_fedchaos` gates it all
  (``python -m repro fedchaos``; DESIGN.md §14).
"""

from .channel import ChannelImpairment, InterDomainChannel
from .chaos import (
    DEFAULT_CHAOS_DURATION,
    DEFAULT_LOSS_RATES,
    DEFAULT_PARTITION_ROUNDS,
    default_fedchaos_plan,
    render_fedchaos_report,
    run_fedchaos,
)
from .coordinator import FederationCoordinator
from .experiment import (
    DEFAULT_DOMAIN_COUNTS,
    DEFAULT_DURATION,
    build_federated_views,
    render_federate_report,
    run_federate,
)
from .session import FederatedSession
from .shard import BORDER_NODE, DomainReceiver, DomainShard, DomainView

__all__ = [
    "BORDER_NODE",
    "ChannelImpairment",
    "DEFAULT_CHAOS_DURATION",
    "DEFAULT_DOMAIN_COUNTS",
    "DEFAULT_DURATION",
    "DEFAULT_LOSS_RATES",
    "DEFAULT_PARTITION_ROUNDS",
    "DomainReceiver",
    "DomainShard",
    "DomainView",
    "FederatedSession",
    "FederationCoordinator",
    "InterDomainChannel",
    "build_federated_views",
    "default_fedchaos_plan",
    "render_fedchaos_report",
    "render_federate_report",
    "run_fedchaos",
    "run_federate",
]
