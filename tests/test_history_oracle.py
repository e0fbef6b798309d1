"""Exactness oracles for the two histories behind a stale controller read.

The controller reads each session's tree and each receiver's report as they
were ``staleness`` seconds ago (paper Fig. 10).  Both histories keep less
than everything:

* ``MulticastManager`` stores a group's tree history as an edge-toggle log,
  and :meth:`~repro.multicast.manager.MulticastManager.snapshot_at` answers
  from the parity of each edge's toggles.  The reference here records every
  installed cut whole, as a list of ``frozenset`` snapshots, and answers by
  bisecting the install times.
* ``ControllerAgent`` drops each report no later tick's cutoff can select.
  The reference keeps every report (up to the ``REPORT_HISTORY`` cap) and
  answers with the newest that had arrived by the cutoff.

Generated scripts drive both sides and every read must agree.
"""

from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.static import StaticController
from repro.control.agent import REPORT_HISTORY, ControllerAgent, ReceiverEntry
from repro.control.discovery import TopologyDiscovery
from repro.control.messages import CONTROL_PORT, Report
from repro.control.session import SessionDescriptor
from repro.media.layers import LayerSchedule
from repro.multicast import manager
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.packet import CONTROL, Packet
from repro.simnet.topology import Network

# ----------------------------------------------------------------------
# Tree history: edge toggles vs whole snapshots
# ----------------------------------------------------------------------
#: Six nodes, every one reachable two ways: a flap reroutes instead of
#: only orphaning.
LINKS = [(0, 1, 0.1), (0, 2, 0.1), (1, 3, 0.1), (2, 3, 0.2), (1, 4, 0.1),
         (3, 5, 0.1), (4, 5, 0.2), (2, 5, 0.3)]

#: Groups are created at this time, so reads before it see no group tree.
CREATED = 1.0


class SnapshotManager(MulticastManager):
    """The manager, also recording each group's installed cut whole at
    every install: the list-of-snapshots model the toggle log replaced."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snapshots = {}

    def create_group(self, source):
        group = super().create_group(source)
        self.snapshots[group] = ([self.sched.now], [frozenset()])
        return group

    def _installed(self, state, nodes, moved):
        super()._installed(state, nodes, moved)
        times, cuts = self.snapshots[state.group]
        times.append(self.sched.now)
        cuts.append(frozenset(state.edges))

    def reference_at(self, group, at_time):
        times, cuts = self.snapshots[group]
        return cuts[max(bisect_right(times, at_time) - 1, 0)]


_node = st.integers(min_value=0, max_value=5)
_group = st.integers(min_value=0, max_value=2)
#: Gaps between script steps; zero puts two steps at one instant.
_gap = st.sampled_from([0.0, 0.0, 0.05, 0.1, 0.3, 1.0])
_op = st.one_of(
    st.tuples(st.just("join"), _group, _node),
    st.tuples(st.just("leave"), _group, _node),
    st.tuples(st.just("block"), _group, _node, st.booleans()),
    st.tuples(st.just("flap"), st.integers(min_value=0, max_value=len(LINKS) - 1),
              st.booleans()),
)
tree_scripts = st.tuples(
    st.sampled_from([0.0, 0.3, 2.0]),  # leave latency; 0 lands on join instants
    st.lists(st.tuples(_gap, _op), min_size=1, max_size=24),
)


def _run_tree_script(leave_latency, script):
    sched = Scheduler()
    net = Network(sched)
    for n in range(6):
        net.add_node(n)
    for a, b, delay in LINKS:
        net.add_link(a, b, bandwidth=1e6, delay=delay)
    m = SnapshotManager(net, leave_latency=leave_latency)
    sched.run(until=CREATED)
    # Two layer groups of source 0 and one group of source 5.
    groups = [m.create_group(0), m.create_group(0), m.create_group(5)]

    def step(op):
        if op[0] == "join":
            m.join(groups[op[1]], op[2])
        elif op[0] == "leave":
            m.leave(groups[op[1]], op[2])
        elif op[0] == "block":
            m.set_blocked(groups[op[1]], op[2], op[3])
        else:
            a, b, _ = LINKS[op[1]]
            changed = net.set_link_up(a, b, op[2])
            m.on_topology_change(**{"added_edges" if op[2] else "removed_edges": changed})

    t = CREATED
    for gap, op in script:
        t += gap
        sched.at(t, step, op)
    with pytest.MonkeyPatch.context() as mp:  # grafts cost their path only
        mp.setattr(manager, "IGMP_REPORT_DELAY", 0.0)
        sched.run(until=t + 5.0)  # every graft and prune has applied
    return sched, m, groups


def _read_times(m, groups, end):
    """Every install time, a point between each two, and before creation."""
    times = sorted({t for g in groups for t in m.snapshots[g][0]})
    between = [(a + b) / 2 for a, b in zip(times, times[1:])]
    return [0.0, CREATED / 2, *times, *between, end]


@given(tree_scripts)
@example((0.0, [(0.0, ("join", 0, 3)), (0.2, ("leave", 0, 3)),
               (0.0, ("join", 0, 3))]))  # leave and rejoin at one instant
@example((2.0, [(0.0, ("join", 0, 5)), (0.0, ("join", 1, 5)),
               (0.5, ("flap", 5, False)), (0.0, ("flap", 5, True))]))
@settings(max_examples=60, deadline=None)
def test_toggle_log_answers_like_whole_snapshots(script):
    """``snapshot_at`` from the toggle log equals the list-of-frozensets
    model at every install time, between installs, before the group was
    created and after the last install — joins, leaves, blocks, link flaps
    and same-instant steps included."""
    sched, m, groups = _run_tree_script(*script)
    for g in groups:
        for t in _read_times(m, groups, sched.now):
            assert m.snapshot_at(g, t) == m.reference_at(g, t), (g, t)
        assert m.snapshot_at(g, sched.now) == m.tree_edges(g)
        # The log holds only edges the group's cut has actually used.
        used = frozenset().union(*m.snapshots[g][1])
        assert set(m.groups[g].toggles) == used


# ----------------------------------------------------------------------
# Report history: trimmed vs untrimmed
# ----------------------------------------------------------------------
def _controller(staleness):
    sched = Scheduler()
    net = Network(sched)
    net.add_node("src")
    net.add_node("rcv")
    net.add_link("src", "rcv", bandwidth=1e6, delay=0.01)
    mcast = MulticastManager(net, leave_latency=2.0)
    schedule = LayerSchedule(n_layers=1, base_rate=32_000)
    desc = SessionDescriptor(0, "src", (mcast.create_group("src"),), schedule)
    controller = ControllerAgent(
        net.node("src"), [desc], TopologyDiscovery(mcast, staleness=staleness),
        StaticController(level=1), interval=1.0,
    )
    controller.receivers[0]["R"] = ReceiverEntry("R", "rcv", now=0.0)
    return sched, controller


def _report(controller, seq):
    msg = Report("R", 0, loss_rate=0.0, bytes=4000.0, level=1, t0=0.0, t1=1.0, seq=seq)
    controller._on_packet(Packet(
        src="rcv", dst="src", size=96, kind=CONTROL,
        port=CONTROL_PORT, payload=(msg,),
    ))


#: ``("report" | "tick", gap)``: a tick reads at ``now - staleness``, the
#: cutoff ``ControllerAgent._tick`` uses.
report_scripts = st.tuples(
    st.sampled_from([0.0, 0.5, 2.0, 3.7, 6.0, 18.0, 500.0]),
    st.lists(st.tuples(st.sampled_from(["report", "report", "tick"]),
                       st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 2.5])),
             min_size=1, max_size=120),
)


@given(report_scripts)
@example((500.0, [("report", 0.0)] * 70 + [("tick", 1.0)]))  # the cap trims
@settings(max_examples=80, deadline=None)
def test_trimmed_reports_answer_like_the_untrimmed_history(script):
    """At every tick's cutoff — and at every later cutoff still ahead —
    the trimmed history returns the very report the untrimmed one would
    (kept up to ``REPORT_HISTORY``, as the controller always capped it)."""
    staleness, steps = script
    sched, controller = _controller(staleness)
    entry = controller.receivers[0]["R"]
    full = []
    seq = 1
    for kind, gap in steps:
        sched.run(until=sched.now + gap)
        if kind == "report":
            seq += 1
            _report(controller, seq)
            assert entry.latest.seq == seq  # admitted, so the oracle is not vacuous
            full.append((sched.now, entry.latest))
            del full[:-REPORT_HISTORY]
            continue
        cutoff = sched.now - controller.discovery.staleness
        for c in (cutoff, cutoff + 0.25, cutoff + staleness, cutoff + 1e3):
            expected = next((r for t, r in reversed(full) if t <= c), None)
            assert entry.report_as_of(c) is expected, (sched.now, c)
    assert entry.latest is (full[-1][1] if full else None)
    assert len(entry.history) <= REPORT_HISTORY
