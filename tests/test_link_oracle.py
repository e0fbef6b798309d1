"""Differential oracle for links without a serialization-done event.

``EagerLink`` is the link as it was before: one scheduler event per
serialization end (``_tx_done``), which counts the packet, books its arrival
and starts the next one from a waiting deque of its own — plus the tie rule the real link has by
construction (DESIGN §6): a serialization that ends at ``t`` completes
before anything else the link does at ``t``.  It and the real :class:`Link`
run one generated script — sends of mixed sizes, down/up, counter reads —
and must agree on every delivery and every counter at every
read, drop-tail and RED, wired and lossy wireless.

Script times sit on a 1/64 s grid and every serialization time is a whole
number of grid steps (125-byte units at 64 kb/s), so offers land exactly on
serialization ends all the time.  Every
step is scheduled before the run starts and so precedes, in heap order, any
``_tx_done`` due at the same instant: without the tie rule the eager link
would see those offers while still busy.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.bus import EventBus
from repro.simnet.engine import Scheduler
from repro.simnet.link import (
    DROP_LINK_DOWN, DROP_QUEUE_FULL, DROP_REASONS, DROP_WIRELESS, Link,
)
from repro.simnet.packet import Packet
from repro.simnet import wireless
from repro.simnet.queues import DropTailQueue, REDQueue
from repro.simnet.wireless import WirelessEdgeLink

GRID = 64              # script steps per simulated second
HORIZON = 3 * GRID
BANDWIDTH = 64_000.0


class EagerLink(Link):
    """Reference: a scheduler event per serialization end (tests only).

    Waiting packets sit in its own deque, ``_waiting``, and the discipline
    admits against that deque's length.  ``_fifo`` holds at most one item,
    the pending ``_tx_done`` entry, so the inherited ``busy``/``stats``/
    ``drops`` views read the same state.  Idle time is summed from the
    moments ``_tx_done`` leaves the link idle to the next offer."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._waiting = deque()
        self._went_idle = 0.0
        self._idle_total = 0.0

    @property
    def backlog(self):
        self._settle()
        return len(self._waiting)

    def _settle(self):
        # The tie rule: a serialization ending now completes first.  It is
        # still an event the eager link pays for, run ahead of heap order.
        fifo = self._fifo
        while fifo and fifo[0][0] <= self.sched.now:
            ev = fifo[0]
            self.sched.cancel(ev)
            self.sched.events_processed += 1
            self._tx_done(*ev[3])

    def send(self, pkt):
        self._settle()
        if not self.up:
            self._emit_drop(pkt, DROP_LINK_DOWN)
            return False
        if self._fifo:
            tx_time = pkt.size * 8.0 / self.bandwidth
            if not self.discipline.admit(len(self._waiting), self._idle_total, tx_time):
                self._emit_drop(pkt, DROP_QUEUE_FULL)
                return False
            self._waiting.append(pkt)
            return True
        self._idle_total += self.sched.now - self._went_idle
        self._start_transmit(pkt)
        return True

    def _start_transmit(self, pkt):
        tx_time = pkt.size * 8.0 / self.bandwidth
        self._stats.busy_time += tx_time
        sched = self.sched
        self._fifo.append(sched.at(sched.now + tx_time, self._tx_done, pkt))

    def _tx_done(self, pkt, lost=False):
        sched = self.sched
        now = sched.now
        self._fifo.popleft()
        stats = self._stats
        stats.tx_packets += 1
        stats.tx_bytes += pkt.size
        if not lost:
            sched.at(now + self.delay, self.dst.receive, pkt, self)
        if self._waiting:
            self._start_transmit(self._waiting.popleft())
        else:
            self._went_idle = now

    def set_down(self):
        self._settle()
        self.up = False
        flushed = len(self._waiting)
        self._waiting.clear()
        self._drops[DROP_LINK_DOWN] += flushed
        bus = self.sched.bus
        if bus is not None:
            bus.emit("link.down", self.sched.now,
                     link=f"{self.src.name}->{self.dst.name}", flushed=flushed)


class EagerWirelessLink(EagerLink, WirelessEdgeLink):
    """Reference wireless link: the channel draw happens in ``_tx_done``."""

    def _tx_done(self, pkt, lost=False):
        if self.rng is not None and self._channel_lost():
            lost = True
            self._emit_drop(pkt, DROP_WIRELESS)
        EagerLink._tx_done(self, pkt, lost)


class Sink:
    def __init__(self, sched):
        self.sched = sched
        self.name = "dst"
        self.arrivals = []

    def receive(self, pkt, link):
        self.arrivals.append((self.sched.now, pkt.seq))


class Stub:
    name = "src"


class Rig:
    """One link ``src -> dst`` under a script; ``kind`` picks the variant."""

    def __init__(self, eager, kind, delay, qcap, seed):
        self.sched = Scheduler()
        self.sched.bus = EventBus()
        self.bus_events = []
        self.sched.bus.subscribe("link.*", self._on_bus)
        self.sink = Sink(self.sched)
        if kind == "red":
            # A heavy EWMA weight, so that a short script reaches the
            # early-drop ramp and idle spells visibly decay the average.
            red = type("OracleRED", (REDQueue,), dict(
                CAPACITY=qcap + 3, MIN_TH=1.0, MAX_TH=3.0, MAX_P=0.5, WQ=0.5))
            queue = red(np.random.default_rng(seed))
        else:
            queue = DropTailQueue(qcap)
        args = (self.sched, Stub(), self.sink, BANDWIDTH, delay, queue)
        if kind == "wireless":
            cls = EagerWirelessLink if eager else WirelessEdgeLink
            self.link = cls(*args, loss_rate=0.3, fade_in=0.2,
                            rng=np.random.default_rng(seed + 1))
        else:
            self.link = (EagerLink if eager else Link)(*args)
        self.seq = 0
        self.reads = []

    def _on_bus(self, ev):
        self.bus_events.append((ev.time, ev.topic, sorted(ev.data.items())))

    # One method per script step ---------------------------------------
    def send(self, units):
        self.seq += 1
        self.link.send(Packet(src="src", dst="dst", size=125 * units, seq=self.seq))

    def down(self, _):
        self.link.set_down()

    def up(self, _):
        self.link.set_up()

    def read(self, _):
        self.reads.append((self.sched.now, self.counters()))

    def counters(self):
        link = self.link
        stats, drops = link.stats, link.drops
        red = [link.discipline.avg] if isinstance(link.discipline, REDQueue) else []
        return ([getattr(stats, f) for f in type(stats).__slots__]
                + [drops[reason] for reason in DROP_REASONS] + [link.backlog, link.busy] + red)

    def play(self, script):
        for step, op, arg in script:
            self.sched.at(step / GRID, getattr(self, op), arg)
        self.sched.at(HORIZON / GRID, self.read, None)
        with pytest.MonkeyPatch.context() as mp:  # fades shorter than the default
            mp.setattr(wireless, "FADE_OUT", 0.4)
            self.sched.run(until=HORIZON / GRID)
        return {
            "arrivals": self.sink.arrivals,
            "reads": self.reads,
            "bus": sorted(self.bus_events),
        }


_STEPS = st.tuples(
    st.integers(0, HORIZON - 1),
    st.sampled_from(["send"] * 6 + ["down", "up", "read", "read"]),
    st.integers(1, 4),
)
_SCRIPTS = st.lists(_STEPS, max_size=40).map(lambda steps: sorted(steps, key=lambda s: s[0]))


@given(st.sampled_from(["droptail", "red", "wireless"]),
       st.sampled_from([0.0, 0.25]), st.integers(1, 4), st.integers(0, 2**16), _SCRIPTS)
@settings(max_examples=300, deadline=None)
def test_lazy_link_is_the_eager_link_minus_events(kind, delay, qcap, seed, script):
    eager = Rig(True, kind, delay, qcap, seed)
    want = eager.play(script)
    real = Rig(False, kind, delay, qcap, seed)
    got = real.play(script)
    assert got == want
    assert real.sched.events_processed <= eager.sched.events_processed


@pytest.mark.parametrize("kind", ["droptail", "wireless"])
def test_the_oracle_scripts_hit_the_tie_and_save_events(kind):
    """Not vacuous: offers land on serialization ends, the eager link pays an
    event per packet, and a down mid-queue is exercised."""
    script = ([(0, "send", 2)] * 4 + [(2, "send", 1), (5, "read", 0),
                                       (7, "down", 0), (10, "up", 0), (11, "send", 3)])
    eager, real = Rig(True, kind, 0.25, 3, 7), Rig(False, kind, 0.25, 3, 7)
    want, got = eager.play(script), real.play(script)
    assert got == want
    # Packet 1 ends at step 2: the offer there finds one packet on the wire
    # (2 queued) rather than the queue full, so it is accepted.  At step 5
    # the counters after the link's three (the drops by reason, then the
    # backlog) show no drop and packets 4 and 5 waiting behind packet 3.
    assert got["reads"][0][1][3:7] == [0, 0, 0, 2]
    # At step 7 packet 4 is on the wire and packet 5 queued: the down
    # flushes it.
    assert (7 / GRID, "link.down", [("flushed", 1), ("link", "src->dst")]) in got["bus"]
    assert real.sched.events_processed < eager.sched.events_processed
