"""Scaling gate: a join costs a path, not a tree, and a host routes through
its router.

The ``join_ramp`` construction at 512 edge nodes — a flash crowd of
controlled receivers, each on its own wireless edge node behind one core
router — counts work, not time, so it holds on any machine: all the
unicast the receivers and the controller send is routed from one search
(the core's map; every edge node and the source are stubs, which read it),
the trees come from one more (the source's map), and the source's tree is
fully built once — every later join grafts a branch onto it in place.
"""

from repro.experiments.crowd import build_crowd_scenario, default_crowd_spec, edge_node_names
from repro.multicast.builders import SPTBuilder
from repro.simnet.topology import Network
from repro.workloads.runner import WorkloadRunner

N_EDGES = 512
DURATION = 20.0


def test_join_ramp_costs_one_search_per_role_and_one_full_build(monkeypatch):
    searches, builds = [], []
    search, build = Network._search, SPTBuilder.build

    def counted_search(self, source, *args, **kwargs):
        searches.append(source)
        return search(self, source, *args, **kwargs)

    def counted_build(self, source, *args, **kwargs):
        builds.append(source)
        return build(self, source, *args, **kwargs)

    monkeypatch.setattr(Network, "_search", counted_search)
    monkeypatch.setattr(SPTBuilder, "build", counted_build)
    sc, session_ids = build_crowd_scenario(seed=1, n_edges=N_EDGES, n_sessions=2)
    edges = edge_node_names(N_EDGES)
    spec = default_crowd_spec(N_EDGES, edges, session_ids, duration=DURATION, seed=1,
                              mode="controlled")
    runner = WorkloadRunner(sc, spec).install()
    sc.run(DURATION)

    net = sc.network
    joined = set().union(*(s.members for s in sc.mcast.groups.values()))
    assert runner.joins_fired >= N_EDGES // 2 and len(joined) >= N_EDGES // 2
    assert len(searches) <= 2, searches
    assert builds == ["src"]
    stubs = [node for name, node in net.nodes.items() if len(net.neighbors(name)) == 1]
    assert len(stubs) == N_EDGES + 1  # every edge node and the source
    edge_stubs = [node for node in stubs if node.name != "src"]
    # The receivers sent their registrations, and every edge node's next
    # hop is "core", read from the map of "core": a stub has none of its own.
    assert sum(1 for node in edge_stubs
               if node.links["core"].stats.tx_packets) >= N_EDGES // 2
    assert all(net.next_hop(node.name, "src") == "core" for node in edge_stubs)
    assert sorted(searches) == sorted(net._spt) == ["core", "src"]
