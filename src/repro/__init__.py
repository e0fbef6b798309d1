"""repro — reproduction of "Using Tree Topology for Multicast Congestion
Control" (Jagannathan & Almeroth, ICPP 2001).

The package provides:

* :mod:`repro.simnet` — a discrete-event network simulator (the ns-2
  substitute the paper's evaluation ran on);
* :mod:`repro.multicast` — multicast trees with graft/leave latency;
* :mod:`repro.media` — layered CBR/VBR sources and loss-tracking receivers;
* :mod:`repro.control` — the controller-agent architecture (reports,
  suggestions, topology discovery with staleness);
* :mod:`repro.core` — the TopoSense algorithm itself;
* :mod:`repro.baselines` — oracle, static and receiver-driven baselines;
* :mod:`repro.metrics` — the paper's evaluation metrics;
* :mod:`repro.experiments` — Topology A/B scenarios and per-figure drivers.

Quickstart::

    from repro.experiments.topologies import build_topology_b
    scenario = build_topology_b(n_sessions=4, traffic="vbr", peak_to_mean=3, seed=1)
    result = scenario.run(duration=300.0)
    print(result.summary())
"""

__version__ = "1.0.0"
