"""Unit tests for the discrete-event scheduler."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.layers import LayerSchedule
from repro.media.source import VBR, LayeredSource
from repro.simnet.engine import Scheduler, SimulationError
from repro.simnet.link import DROP_QUEUE_FULL, DROP_WIRELESS
from repro.simnet.topology import Network
from repro.simnet.wireless import WirelessEdgeLink


def test_initial_state():
    s = Scheduler()
    assert s.now == 0.0
    assert s.pending == 0
    assert s.peek_time() is None


def test_events_fire_in_time_order():
    s = Scheduler()
    hits = []
    s.after(2.0, hits.append, "c")
    s.after(1.0, hits.append, "b")
    s.after(0.5, hits.append, "a")
    s.run(until=3.0)
    assert hits == ["a", "b", "c"]


def test_ties_broken_by_schedule_order():
    s = Scheduler()
    hits = []
    for tag in "abcde":
        s.at(1.0, hits.append, tag)
    s.run(until=1.0)
    assert hits == list("abcde")


def test_run_advances_now_to_until():
    s = Scheduler()
    s.after(0.25, lambda: None)
    s.run(until=10.0)
    assert s.now == 10.0


def test_events_beyond_until_not_fired():
    s = Scheduler()
    hits = []
    s.at(5.0, hits.append, "late")
    s.run(until=4.999)
    assert hits == []
    s.run(until=5.0)
    assert hits == ["late"]


def test_event_exactly_at_until_fires():
    s = Scheduler()
    hits = []
    s.at(2.0, hits.append, "x")
    s.run(until=2.0)
    assert hits == ["x"]


def test_cannot_schedule_in_past():
    s = Scheduler()
    s.after(1.0, lambda: None)
    s.run(until=5.0)
    with pytest.raises(SimulationError):
        s.at(4.0, lambda: None)


def test_cannot_run_backwards():
    s = Scheduler()
    s.run(until=5.0)
    with pytest.raises(SimulationError):
        s.run(until=1.0)


def test_negative_delay_rejected():
    s = Scheduler()
    with pytest.raises(SimulationError):
        s.after(-0.1, lambda: None)


def test_non_finite_time_rejected():
    s = Scheduler()
    with pytest.raises(SimulationError):
        s.at(float("inf"), lambda: None)
    with pytest.raises(SimulationError):
        s.at(float("nan"), lambda: None)


def test_cancelled_event_does_not_fire():
    s = Scheduler()
    hits = []
    ev = s.after(1.0, hits.append, "x")
    s.cancel(ev)
    s.run(until=2.0)
    assert hits == []
    assert s.events_processed == 0


def test_cancel_is_idempotent():
    s = Scheduler()
    ev = s.after(1.0, lambda: None)
    s.cancel(ev)
    s.cancel(ev)
    s.run(until=2.0)


def test_events_scheduled_during_run_fire():
    s = Scheduler()
    hits = []

    def chain(n):
        hits.append(n)
        if n < 3:
            s.after(0.1, chain, n + 1)

    s.after(0.0, chain, 0)
    s.run(until=1.0)
    assert hits == [0, 1, 2, 3]


def test_now_is_event_time_during_callback():
    s = Scheduler()
    seen = []
    s.at(1.25, lambda: seen.append(s.now))
    s.run(until=2.0)
    assert seen == [1.25]


def test_step_executes_single_event():
    s = Scheduler()
    hits = []
    s.after(1.0, hits.append, "a")
    s.after(2.0, hits.append, "b")
    assert s.step() is True
    assert hits == ["a"]
    assert s.now == 1.0
    assert s.step() is True
    assert s.step() is False


def test_every_repeats_until_stopiteration():
    s = Scheduler()
    hits = []

    def tick():
        hits.append(s.now)
        if len(hits) >= 3:
            raise StopIteration

    s.every(1.0, tick)
    s.run(until=10.0)
    assert hits == [1.0, 2.0, 3.0]


def test_every_stops_on_truthy_return():
    s = Scheduler()
    hits = []

    def tick():
        hits.append(s.now)
        return len(hits) >= 2

    s.every(0.5, tick)
    s.run(until=10.0)
    assert hits == [0.5, 1.0]


def test_every_with_explicit_start():
    s = Scheduler()
    hits = []

    def tick():
        hits.append(s.now)
        if len(hits) >= 2:
            raise StopIteration

    s.every(1.0, tick, start=0.25)
    s.run(until=5.0)
    assert hits == [0.25, 1.25]


def test_every_rejects_nonpositive_interval():
    s = Scheduler()
    with pytest.raises(SimulationError):
        s.every(0.0, lambda: None)


def test_every_first_event_cancellable():
    s = Scheduler()
    hits = []
    ev = s.every(1.0, hits.append, "x")
    s.cancel(ev)
    s.run(until=5.0)
    assert hits == []


def test_events_processed_counter():
    s = Scheduler()
    for _ in range(5):
        s.after(1.0, lambda: None)
    s.run(until=2.0)
    assert s.events_processed == 5


def test_peek_time_skips_cancelled():
    s = Scheduler()
    ev = s.after(1.0, lambda: None)
    s.after(2.0, lambda: None)
    s.cancel(ev)
    assert s.peek_time() == 2.0


def test_every_raising_callback_surfaces_simulation_error():
    s = Scheduler()

    def tick():
        if s.now >= 3.0:
            raise RuntimeError("boom")

    s.every(1.0, tick)
    with pytest.raises(SimulationError, match=r"tick.*t=3\.0.*boom"):
        s.run(until=10.0)
    # The failure is surfaced, not swallowed: time stopped at the bad tick.
    assert s.now == 3.0


def test_every_raising_callback_chains_original_exception():
    s = Scheduler()

    def tick():
        raise KeyError("missing")

    s.every(2.0, tick)
    with pytest.raises(SimulationError) as excinfo:
        s.run(until=10.0)
    assert isinstance(excinfo.value.__cause__, KeyError)


def test_every_simulation_error_passes_through_unwrapped():
    s = Scheduler()

    def tick():
        raise SimulationError("already typed")

    s.every(1.0, tick)
    with pytest.raises(SimulationError, match="^already typed$"):
        s.run(until=10.0)


class _Owner:
    """The owner of a periodic callback, which ends the chain at once."""

    def __init__(self, ends_by):
        self.ends_by = ends_by

    def tick(self):
        if self.ends_by == "StopIteration":
            raise StopIteration
        return True


@pytest.mark.parametrize("ends_by", ["StopIteration", "truthy return"])
def test_an_ended_chain_frees_its_owner_without_a_collection(ends_by):
    """Nothing of a chain outlives it, not even a reference cycle that
    keeps the callback's owner alive until the next collection."""
    s = Scheduler()
    owner = _Owner(ends_by)
    s.every(1.0, owner.tick)
    gone = weakref.ref(owner)
    del owner
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert gone() is not None  # the pending chain holds it
        s.run(until=2.0)
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Ordering oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("call, message", [
    (lambda s: s.at(float("nan"), print), r"^event time must be finite, got nan$"),
    (lambda s: s.at(float("inf"), print), r"^event time must be finite, got inf$"),
    (lambda s: s.at(float("-inf"), print),
     r"^cannot schedule at t=-inf before current time t=5\.0$"),
    (lambda s: s.at(4.0, print), r"^cannot schedule at t=4\.0 before current time t=5\.0$"),
    (lambda s: s.after(-0.1, print), r"^delay must be non-negative, got -0\.1$"),
    (lambda s: s.after(float("nan"), print), r"^event time must be finite, got nan$"),
    (lambda s: s.after(float("inf"), print), r"^event time must be finite, got inf$"),
])
def test_invalid_times_keep_their_messages(call, message):
    s = Scheduler()
    s.run(until=5.0)
    with pytest.raises(SimulationError, match=message):
        call(s)
    assert s.pending == 0


# A script is what one callback does when it fires: schedule children (each
# with a script of its own) and cancel earlier handles.  Delays come from a
# tiny grid, so most timestamps collide and only ``seq`` separates them.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])


def _actions(children):
    return st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["at", "after"]), _DELAYS, children),
            st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        ),
        max_size=4,
    )


_SCRIPTS = st.recursive(st.just([]), _actions, max_leaves=25)


class _Program:
    """Runs a script against a scheduler and keeps the oracle's books."""

    def __init__(self):
        self.sched = Scheduler()
        self.handles = []    # every event ever scheduled, in seq order
        self.cancelled = set()  # ids cancelled while still pending
        self.fired = []

    def perform(self, script):
        s = self.sched
        for action in script:
            if action[0] == "cancel":
                if self.handles:
                    ident = action[1] % len(self.handles)
                    if ident not in self.fired:
                        self.cancelled.add(ident)
                    s.cancel(self.handles[ident])
                continue
            kind, delay, child = action
            ident = len(self.handles)
            if kind == "at":
                ev = s.at(s.now + delay, self.fire, ident, child)
            else:
                ev = s.after(delay, self.fire, ident, child)
            # The handle is the heap entry, ``[time, seq, fn, args]``.
            assert ev == [s.now + delay, ident, self.fire, (ident, child)]
            self.handles.append(ev)

    def fire(self, ident, script):
        assert self.sched.now == self.handles[ident][0]
        self.fired.append(ident)
        self.perform(script)

    def expected_order(self):
        live = [ev for i, ev in enumerate(self.handles) if i not in self.cancelled]
        return [ev[3][0] for ev in sorted(live)]

    def next_live_time(self):
        pending = [ev[0] for i, ev in enumerate(self.handles)
                   if i not in self.cancelled and i not in self.fired]
        return min(pending, default=None)


@given(_SCRIPTS)
@settings(max_examples=200, deadline=None)
def test_fires_in_time_seq_order_minus_cancelled(script):
    stepped = _Program()
    stepped.perform(script)
    while True:
        assert stepped.sched.peek_time() == stepped.next_live_time()
        if not stepped.sched.step():
            break
    assert stepped.fired == stepped.expected_order()
    assert stepped.sched.events_processed == len(stepped.fired)
    assert all(stepped.handles[i][2] is None for i in stepped.cancelled)

    ran = _Program()
    ran.perform(script)
    ran.sched.run(until=1.0)   # a horizon that splits the program in two
    assert ran.sched.peek_time() == ran.next_live_time()
    ran.sched.run(until=1e6)
    assert ran.fired == stepped.fired
    assert ran.sched.pending == 0


# ----------------------------------------------------------------------
# Everything is scheduled through Scheduler.at
# ----------------------------------------------------------------------
class CountingScheduler(Scheduler):
    """Counts ``at`` calls the way an external harness would wrap them."""

    def __init__(self):
        super().__init__()
        self.at_calls = 0

    def at(self, time, fn, *args):
        self.at_calls += 1
        return super().at(time, fn, *args)


def test_nothing_is_scheduled_behind_at():
    s = CountingScheduler()
    net = Network(s)
    for name in ("src", "hub", "wired", "radio"):
        net.add_node(name)
    net.add_link("src", "hub", bandwidth=10e6, delay=0.01)
    net.add_link("hub", "wired", bandwidth=200e3, delay=0.02, queue_limit=4)
    net.add_link(
        "hub", "radio", bandwidth=1e6, delay=0.02,
        link_factory=lambda *a: WirelessEdgeLink(
            *a, loss_rate=0.2, fade_in=0.1, rng=np.random.default_rng(5)),
    )
    schedule = LayerSchedule(n_layers=3, base_rate=32_000)
    groups = [1, 2, 3]
    for g in groups[:2]:  # layer 3 stays unheard: parked, never scheduled
        net.node("src").set_forwarding(g, {"hub"})
        net.node("hub").set_forwarding(g, {"wired", "radio"})
    source = LayeredSource(net.node("src"), 1, groups, schedule, model=VBR,
                           rng=np.random.default_rng(9), phase_jitter=True)
    source.start()
    ticks = []
    s.every(0.7, ticks.append, "tick")
    s.after(3.3, ticks.append, "once")
    s.run(until=20.0)

    radio = net.links[("hub", "radio")]
    assert isinstance(radio, WirelessEdgeLink) and radio.drops[DROP_WIRELESS] > 0
    assert radio.stats.tx_packets > radio.drops[DROP_WIRELESS]
    assert net.links[("hub", "wired")].drops[DROP_QUEUE_FULL] > 0
    assert source.senders[2].packets_sent > 0 and len(ticks) == 29
    # Nothing was cancelled, so every entry ever made is either processed or
    # still pending, and the next sequence number says how many were made.
    assert s.at_calls == s.events_processed + s.pending
    assert s.at(s.now, print)[1] == s.at_calls - 1
