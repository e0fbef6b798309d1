"""Every receiver agent hears the controller within DESIGN §8's bound.

The oracle of ROADMAP 1(c): every agent that starts at ``s`` — with
``s + 3·interval`` before the horizon and the agent still running then —
receives its first suggestion by ``s + 3·interval``.  Three intervals is the
recovery bound DESIGN §8 states (``RECOVERY_INTERVALS``), scored by the same
``hears_within`` that scores chaos and churn.  It runs on two constructions:

* ``join_ramp``: a crowd of controlled receivers, one per wireless edge
  node, joining over a flash-crowd ramp;
* a two-domain federated crowd: ``fed_crowd``'s construction at two domains
  of 16 placed receivers, each with 64 co-located crowd receivers on its
  access nodes.

At 64 and 256 edge nodes the controller's fan-out tail-drops at its own
uplink and many agents never hear a suggestion (ROADMAP 1(a)).  The
federated crowd's co-located receivers all hear since a suggestion is
addressed to their node (ROADMAP 1(b), done); what is left there is tail
drop too: the suggestions to one access node are dropped behind data in
the controller's first-hop queue to it.  Those cases are strict xfails, so
a fix turns them into XPASS failures and must remove the marker.  At 16
nodes every agent hears in time, which shows the oracle is not vacuous.

The test observes start and stop times itself: a rejoin replaces the agent
on its receiver handle, so the replaced agents cannot be found after the
run, and no production code reads an agent's stop time.
"""

import pytest

from repro.control.agent import ReceiverAgent
from repro.experiments.crowd import (
    build_crowd_scenario,
    crowd_session_ids,
    default_crowd_spec,
    edge_node_names,
)
from repro.federation.experiment import build_federated_views
from repro.federation.session import FederatedSession
from repro.metrics.recovery import RECOVERY_INTERVALS, hears_within
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec

DURATION = 40.0


def _record_agents(monkeypatch):
    """``{id: [agent, start, stop]}`` for every receiver agent started from
    now on, ``stop`` None while it still runs."""
    lifetimes = {}
    start, stop = ReceiverAgent.start, ReceiverAgent.stop

    def recorded_start(self):
        lifetimes.setdefault(id(self), [self, self.sched.now, None])
        start(self)

    def recorded_stop(self):
        if self.active:
            lifetimes[id(self)][2] = self.sched.now
        stop(self)

    monkeypatch.setattr(ReceiverAgent, "start", recorded_start)
    monkeypatch.setattr(ReceiverAgent, "stop", recorded_stop)
    return lifetimes


def _run_join_ramp(n_edges):
    """Run ``join_ramp`` at ``n_edges`` nodes; returns the control interval."""
    sc, _ = build_crowd_scenario(seed=1, n_edges=n_edges, n_sessions=2)
    spec = default_crowd_spec(n_edges, edge_node_names(n_edges), crowd_session_ids(2),
                              duration=DURATION, seed=1, mode="controlled")
    WorkloadRunner(sc, spec).install()
    sc.run(DURATION)
    return sc.controllers["default"].interval


def _run_federated_crowd(crowd_per_domain=64):
    """Run the two-domain federated crowd; returns the control interval."""
    fed = FederatedSession(build_federated_views(2, 16), seed=1, cadence=2.0)
    for name in sorted(fed.shards):
        shard = fed.shards[name]
        spec = WorkloadSpec()
        spec.zipf_sessions(
            [f"c{name}-{i}" for i in range(crowd_per_domain)],
            sorted({r.node for r in shard.view.receivers}),
            sorted(shard.scenario.sessions), zipf_s=1.1, seed=1, controller=name,
        )
        spec.flash_crowd(at=10.0, size=crowd_per_domain, ramp=5.0, shape="exp", seed=2)
        WorkloadRunner(shard.scenario, spec).install()
    fed.run(DURATION)
    (interval,) = {shard.controller.interval for shard in fed.shards.values()}
    return interval


def _assert_every_agent_heard(lifetimes, interval, min_scored):
    bound = RECOVERY_INTERVALS * interval
    scored = [(agent, s) for agent, s, stopped in lifetimes.values()
              if s + bound < DURATION and (stopped is None or stopped > s + bound)]
    assert len(scored) > min_scored
    late = [(agent.receiver.receiver_id, s) for agent, s in scored
            if not hears_within(agent.suggestion_times, [s], bound)["recovered_all"]]
    assert late == [], f"{len(late)} of {len(scored)} agents heard nothing in time"


_FAN_OUT = ("ROADMAP 1(a): the controller's suggestion fan-out is tail-dropped at "
            "its own uplink")


@pytest.mark.parametrize("n_edges", [
    16,
    pytest.param(64, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        _FAN_OUT + ", so at 64 nodes many agents never hear a suggestion"))),
    pytest.param(256, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        _FAN_OUT + ": at 256 nodes 218 of 263 scored agents are late"))),
])
def test_every_agent_hears_a_suggestion_within_three_intervals(monkeypatch, n_edges):
    lifetimes = _record_agents(monkeypatch)
    interval = _run_join_ramp(n_edges)
    _assert_every_agent_heard(lifetimes, interval, n_edges // 2)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    _FAN_OUT + " (1(a)): the three crowd agents on r29 are late, their first "
    "suggestions tail-dropped behind data on the 100 Kb/s gw2->r29 link"))
def test_every_federated_agent_hears_a_suggestion_within_three_intervals(monkeypatch):
    lifetimes = _record_agents(monkeypatch)
    interval = _run_federated_crowd()
    _assert_every_agent_heard(lifetimes, interval, 64)
