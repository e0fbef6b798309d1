"""Exactness oracle and cost guard for the path-local optimal allocation.

:func:`~repro.baselines.oracle.optimal_levels` checks, on each one-layer
trial, only the edges of the raised receiver's own path where it becomes
its session's highest.  The reference here is the full-recheck greedy it
replaced: the same round-robin, but every trial recomputes every edge of
every session from a parent map and checks them all.  Generated
multi-session graphs drive both, and the two allocations must be equal.
The cost guard counts capacity lookups instead of timing the scorer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.oracle import optimal_levels
from repro.baselines.session_plan import SessionPlan
from repro.media.layers import PAPER_SCHEDULE, LayerSchedule
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network

#: Geometric, explicit odd-valued and three-layer schedules, so edge sums
#: mix rates whose float additions do not commute exactly.
SCHEDULES = (
    PAPER_SCHEDULE,
    LayerSchedule(rates=[33.3e3, 47.1e3, 0.1e6, 0.7e5]),
    LayerSchedule(n_layers=3, base_rate=1e5 / 3, growth=1.7),
)


def full_recheck_levels(network, plans):
    """The executable spec: raise one layer at a time in ``str`` order of
    ``(session, receiver)``, and keep a raise only when every edge of every
    session still fits the sum of each session's highest downstream level."""
    parents = {}
    for p in plans:
        parent = {}
        for node in p.receiver_nodes.values():
            path = network.shortest_path(p.source, node)
            for u, v in zip(path, path[1:]):
                parent[v] = u
        parents[p.session_id] = parent
    levels = {
        (p.session_id, rid): min(1, p.schedule.n_layers)
        for p in plans
        for rid in p.receiver_nodes
    }

    def feasible():
        load = {}
        for p in plans:
            parent = parents[p.session_id]
            per_edge = {}
            for rid, node in p.receiver_nodes.items():
                lvl = levels[(p.session_id, rid)]
                v = node
                while v in parent:
                    e = (parent[v], v)
                    if per_edge.get(e, 0) < lvl:
                        per_edge[e] = lvl
                    v = parent[v]
            for e, lvl in per_edge.items():
                load[e] = load.get(e, 0.0) + p.schedule.cumulative(lvl)
        return all(l <= network.link(*e).bandwidth + 1e-9 for e, l in load.items())

    if not feasible():
        return levels
    keys = sorted(levels, key=str)
    progress = True
    while progress:
        progress = False
        for key in keys:
            plan = next(p for p in plans if p.session_id == key[0])
            if levels[key] >= plan.schedule.n_layers:
                continue
            levels[key] += 1
            if feasible():
                progress = True
            else:
                levels[key] -= 1
    return levels


@st.composite
def multi_session_graphs(draw):
    """A random tree plus extra links, one to four sessions on shared or
    distinct sources, receivers co-located and at their source, and link
    bandwidths on the exact sums of layer rates (the ``1e-9`` boundary),
    around them, starved (base-infeasible) or ample."""
    n = draw(st.integers(2, 10))
    delays = st.sampled_from([0.1, 0.2, 0.3])
    net = Network(Scheduler())
    for v in range(n):
        net.add_node(v)
    for v in range(1, n):
        net.add_link(draw(st.integers(0, v - 1)), v, bandwidth=1.0, delay=draw(delays))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a != b and (a, b) not in net.links:
            net.add_link(a, b, bandwidth=1.0, delay=draw(delays))
    for link in net.links.values():
        terms = [
            draw(st.sampled_from(SCHEDULES)).cumulative(draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 4)))
        ]
        exact = sum(terms)
        link.bandwidth = draw(st.sampled_from([exact, exact * 1.5, exact * 3, 20e3, 5e6]))
    plans = []
    first_source = draw(st.integers(0, n - 1))
    for sid in range(draw(st.integers(1, 4))):
        source = first_source if draw(st.booleans()) else draw(st.integers(0, n - 1))
        plan = SessionPlan(sid, source, draw(st.sampled_from(SCHEDULES)))
        for r in range(draw(st.integers(1, 5))):
            plan.add_receiver(f"R{sid}-{r}", draw(st.sampled_from([source, *range(n)])))
        plans.append(plan)
    return net, plans


@given(multi_session_graphs())
@settings(max_examples=300, deadline=None)
def test_path_local_greedy_equals_full_recheck(case):
    net, plans = case
    assert optimal_levels(net, plans) == full_recheck_levels(net, plans)


def test_an_edge_sums_its_sessions_in_plans_order():
    """Three sessions share one link whose bandwidth is the plans-order sum
    (a + b) + c of their rates once session 0 takes its second layer; the
    reverse order (c + b) + a is 4e-9 larger, past the 1e-9 slack, so
    summing in any other order would refuse that raise."""
    a, b, c = 4959169.3, 4986594.1, 4609339.2
    assert (c + b) + a > (a + b) + c + 1e-9
    net = Network(Scheduler())
    net.add_node("x")
    net.add_node("y")
    net.add_link("x", "y", bandwidth=(a + b) + c)
    plans = [SessionPlan(0, "x", LayerSchedule(rates=[0.5, a - 0.5])),
             SessionPlan(1, "x", LayerSchedule(rates=[b])),
             SessionPlan(2, "x", LayerSchedule(rates=[c]))]
    for sid, plan in enumerate(plans):
        plan.add_receiver(f"R{sid}", "y")
    levels = optimal_levels(net, plans)
    assert levels == {(0, "R0"): 2, (1, "R1"): 1, (2, "R2"): 1}
    assert levels == full_recheck_levels(net, plans)


def test_scoring_work_is_linear_in_receivers_layers_and_path_length(monkeypatch):
    """1 024 receivers, two sessions, 3-edge paths: the capacity lookups
    stay under receivers x (layers + 1) x path length.  A scorer that
    rechecks every edge on every trial makes about a thousand per trial."""
    net = Network(Scheduler())
    net.add_node("src")
    access = [100e3, 250e3, 500e3, 1e6, 2.5e6]
    plans = [SessionPlan(0, "src", PAPER_SCHEDULE), SessionPlan(1, "src", PAPER_SCHEDULE)]
    leaf = 0
    for c in range(8):
        net.add_node(f"c{c}")
        net.add_link("src", f"c{c}", bandwidth=20e6)
        for a in range(4):
            agg = f"a{c}.{a}"
            net.add_node(agg)
            net.add_link(f"c{c}", agg, bandwidth=3e6)
            for _ in range(32):
                net.add_node(f"r{leaf}")
                net.add_link(agg, f"r{leaf}", bandwidth=access[leaf % len(access)])
                plans[leaf % 2].add_receiver(f"R{leaf}", f"r{leaf}")
                leaf += 1
    calls = [0]
    link = Network.link

    def counted(self, a, b):
        calls[0] += 1
        return link(self, a, b)

    monkeypatch.setattr(Network, "link", counted)
    levels = optimal_levels(net, plans)
    assert len(levels) == 1024
    assert len(set(levels.values())) > 1  # the access links bind
    assert calls[0] <= len(levels) * (PAPER_SCHEDULE.n_layers + 1) * 3
