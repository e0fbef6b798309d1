"""TopoSense — the paper's primary contribution.

Public surface:

* :class:`~repro.core.toposense.TopoSense` — the stateful controller logic;
* :class:`~repro.core.config.TopoSenseConfig` — every algorithm knob;
* :class:`~repro.core.session_topology.SessionTree` — the controller's image
  of one session's multicast tree;
* :class:`~repro.core.types.ReceiverReport` / :class:`~repro.core.types.SessionInput`
  — the interval input records, keyed by leaf (``TopoSense.update`` returns
  one level per ``(session, leaf)``);
* the individual stages (:mod:`~repro.core.congestion`,
  :mod:`~repro.core.capacity`, :mod:`~repro.core.bottleneck`,
  :mod:`~repro.core.sharing`, :mod:`~repro.core.decision_table`,
  :mod:`~repro.core.subscription`) for fine-grained use and testing.
"""
