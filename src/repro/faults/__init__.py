"""Fault injection: declarative, scheduler-driven failure scenarios.

The paper's whole premise is operation over an unreliable network — control
messages "could be lost due to congestion", receivers fall back to unilateral
decisions, and the controller acts on stale information.  This package turns
those degradation paths from latent code into exercised behaviour:

* :class:`~repro.faults.plan.FaultPlan` — a declarative list of timed fault
  events, serialisable to/from plain dicts for replayable chaos runs;
* :class:`~repro.faults.injectors.FaultInjector` — binds a plan to a
  :class:`~repro.experiments.scenario.Scenario` and executes each event by
  calling its method named after the event's kind (``link_down``,
  ``controller_kill``, ``byzantine_start``, …; the ``fed_*`` kinds belong to
  :class:`~repro.faults.injectors.FederationInjector`).  ``plan.KINDS``
  lists them all.

Typical use::

    plan = FaultPlan()
    plan.add(20.0, "controller_kill", name="default")
    plan.add(22.0, "controller_failover", name="default")
    plan.link_flap(40.0, "core", "agg_a", down_for=3.0, times=2, period=6.0)
    plan.discovery_outage(60.0, 80.0)
    plan.add(90.0, "byzantine_start", "r3", "lie_low+disobey")
    plan.add(100.0, "receiver_leave", "r2")
    injector = run_plan(scenario, 120.0, plan)   # repro.experiments.scenario
    print(injector.log)        # [(time, kind, detail), ...]

Every kind is fired by one of the default plans (``default_chaos_plan``,
``default_churn_plan``, ``default_attack_plan``, ``default_fedchaos_plan``);
a kind comes only together with the plan that fires it.
"""

# Only for bench/, which imports it from the package (ROADMAP 3(d)).
from .plan import FaultPlan

__all__ = ["FaultPlan"]
