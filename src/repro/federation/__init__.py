"""Federated multi-domain control plane (DESIGN.md §13).

The paper's Fig. 3 architecture — "multiple controller agents, each
concerned with one particular administrative domain" — implemented as a
real sharded subsystem:

* :func:`~repro.federation.experiment.build_federated_views` describes each
  domain of the multi-domain star as a
  :class:`~repro.federation.shard.DomainView`, straight from the layout;
* :class:`~repro.federation.shard.DomainShard` runs one view as a standalone
  controller + simnet slice (seeded per-shard RNG streams, no state shared
  with siblings);
* :class:`~repro.control.messages.SubtreeSummary` aggregates cross the
  domain boundary on a fixed cadence;
* :class:`~repro.federation.coordinator.FederationCoordinator` merges them
  into session-level :class:`~repro.control.messages.FederationAdvice`
  without ever seeing a per-receiver report;
* :class:`~repro.federation.session.FederatedSession` drives the lockstep
  rounds, and :func:`~repro.federation.experiment.run_federate` sweeps
  domain count at fixed receiver population (``python -m repro federate``);
* :class:`~repro.federation.channel.InterDomainChannel` is the one wire
  every summary and advice crosses, and makes the exchange fault-injectable
  (seeded loss/delay/duplication, partitions); the coordinator fails over
  with epoch fencing, shards retry/timeout and decay ceilings past the
  bounded-staleness budget, and :func:`~repro.federation.chaos.run_fedchaos`
  gates it all (``python -m repro fedchaos``; DESIGN.md §14).
"""
