"""Hierarchical multi-domain control (the paper's Figs. 2-3).

One session spans two administrative domains.  Each domain runs its own
TopoSense controller at its gateway; each controller discovers only its
domain's subtree and manages only its domain's receivers — "each domain and
controller agent is unaware of the other controller agents' existence".

The paper's scalability argument: since "disjoint subtrees on the multicast
tree do not affect each other as long as their common ancestors have a high
capacity", congestion control decomposes cleanly per domain.

Run:  python examples/multi_domain.py
"""

from repro.experiments.domains import build_two_domain_topology


def main() -> None:
    sc = build_two_domain_topology(receivers_per_domain=3, traffic="cbr", seed=13)
    print(sc.network.describe())
    print("\ndomain 1 (500 Kb/s last mile, controller at gw1): optimal 4 layers")
    print("domain 2 (100 Kb/s last mile, controller at gw2): optimal 2 layers")

    print("\nsimulating 300 s ...\n")
    result = sc.run(300.0)

    warmup = 60.0
    for name, prefix in (("d1", "D1"), ("d2", "D2")):
        controller = sc.controllers[name]
        hs = [h for h in sc.receivers if h.receiver_id.startswith(prefix)]
        mean = sum(h.trace.time_weighted_mean(warmup, result.end_time) for h in hs) / len(hs)
        print(f"domain {name}: mean level {mean:.2f}, "
              f"{controller.updates_run} control intervals, "
              f"{controller.reports_received} reports, "
              f"{controller.suggestions_sent} suggestions")
        tree = sc.discoveries[name].session_tree(
            sc.sessions[hs[0].session_id],
            {h.receiver_id: h.node for h in hs},
        )
        print(f"  discovered subtree: root={tree.root!r}, "
              f"{len(tree.nodes)} nodes (domain-clipped)")


if __name__ == "__main__":
    main()
