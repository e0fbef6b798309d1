"""Every receiver agent hears the controller within DESIGN §8's bound.

The oracle of ROADMAP 1(c): on the ``join_ramp`` construction (a crowd of
controlled receivers, one per wireless edge node, joining over a flash-crowd
ramp), every agent that starts at ``s`` — with ``s + 3·interval`` before the
horizon and the agent still running then — receives its first suggestion by
``s + 3·interval``.  Three intervals is the recovery bound DESIGN §8 states.

At 64 edge nodes the controller's fan-out tail-drops at its own uplink and
many agents never hear a suggestion (ROADMAP 1(a)); that case is a strict
xfail, so the fix turns it into an XPASS failure and must remove the marker.
At 16 nodes every agent hears in time, which shows the oracle is not
vacuous.
"""

import pytest

from repro.control.agent import ReceiverAgent
from repro.experiments.crowd import (
    build_crowd_scenario,
    crowd_session_ids,
    default_crowd_spec,
    edge_node_names,
)
from repro.workloads.runner import WorkloadRunner

DURATION = 40.0
#: DESIGN §8: a receiver hears the controller within three intervals.
BOUND_INTERVALS = 3


def _agent_lifetimes(monkeypatch, n_edges):
    """Run the construction; returns ``(interval, [(agent, start, stop)])``
    for every receiver agent started, ``stop`` None while it still runs."""
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
    sc, _ = build_crowd_scenario(seed=1, n_edges=n_edges, n_sessions=2)
    spec = default_crowd_spec(n_edges, edge_node_names(n_edges), crowd_session_ids(2),
                              duration=DURATION, seed=1, mode="controlled")
    WorkloadRunner(sc, spec).install()
    sc.run(DURATION)
    interval = sc.controllers["default"].interval
    return interval, [tuple(v) for v in lifetimes.values()]


@pytest.mark.parametrize("n_edges", [
    16,
    pytest.param(64, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP 1(a): the controller's suggestion fan-out is tail-dropped at "
        "its own uplink, so at 64 nodes many agents never hear a suggestion"))),
])
def test_every_agent_hears_a_suggestion_within_three_intervals(monkeypatch, n_edges):
    interval, lifetimes = _agent_lifetimes(monkeypatch, n_edges)
    bound = BOUND_INTERVALS * interval
    scored = [(agent, s) for agent, s, stopped in lifetimes
              if s + bound < DURATION and (stopped is None or stopped > s + bound)]
    assert len(scored) > n_edges // 2
    late = [(agent.receiver.receiver_id, s) for agent, s in scored
            if not agent.suggestion_times or agent.suggestion_times[0] > s + bound]
    assert late == [], f"{len(late)} of {len(scored)} agents heard nothing in time"
