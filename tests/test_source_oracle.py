"""Differential oracle for parked emitters.

``EagerSource`` is the slot loop as it was before unheard layers were parked:
every emit of every layer is a heap entry, heard or not.  It and the real
:class:`LayeredSource` run one generated script — grafts, prunes, local
handlers coming and going, counter reads — on the same two-node topology, and must agree on
everything except how many events it took.  Each listener records the
sequence numbers it heard, and a wrapper of the source node's ``send``
records each packet's sequence number and emit time.

Script times sit on a 1/32 s grid, which is where a jitter-free CBR source
puts its packets (4, 8, 16, 32 pkt/s), so most script steps coincide with an
emit.  Every step is scheduled before the source starts and therefore fires
*before* the emits due at the same instant — the order under which the tie
rule of DESIGN §7 (a parked emit is already due only strictly before ``now``)
is exactly what scheduling everything does.  Same-instant emits of
*different* layers fire in scheduling order, which for a woken train is wake
order, so packets are collected per group.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.layers import LayerSchedule
from repro.media.source import CBR, SLOT, VBR, LayeredSource
from repro.simnet.engine import Scheduler
from repro.simnet.packet import DEFAULT_PACKET_SIZE
from repro.simnet.topology import Network

GRID = 32          # script steps per simulated second
HORIZON = 5 * GRID


class EagerSource(LayeredSource):
    """Reference: park nothing, schedule every emit (tests only)."""

    def _run_slot(self):
        at, now = self.sched.at, self.sched.now
        for sender in self.senders:
            n = self._draw_packets(sender.rate * SLOT / (DEFAULT_PACKET_SIZE * 8.0))
            if n <= 0:
                continue
            spacing = SLOT / n
            offset = sender.phase * spacing
            for i in range(n):
                at(now + (offset + i * spacing), self._emit, sender)
        at(now + SLOT, self._run_slot)


class Rig:
    """src --10 Mb/s--> dst; one packet list per (listener node, group)."""

    def __init__(self, source_cls, model, jitter, n_layers, seed):
        self.sched = Scheduler()
        net = Network(self.sched)
        self.src = net.add_node("src")
        self.dst = net.add_node("dst")
        net.add_link("src", "dst", bandwidth=10e6, delay=0.01, queue_limit=10_000)
        self.groups = list(range(1, n_layers + 1))
        self.heard = {(node, g): [] for node in ("src", "dst") for g in self.groups}
        self.sent = {g: [] for g in self.groups}
        node_send = self.src.send

        def recording_send(pkt):
            self.sent[pkt.group].append((pkt.seq, self.sched.now))
            node_send(pkt)

        self.src.send = recording_send
        for g in self.groups:
            self.dst.add_group_handler(g, self.heard["dst", g].append)
        self.rng = np.random.default_rng(seed)
        self.source = source_cls(
            self.src, 1, self.groups, LayerSchedule(n_layers=n_layers, base_rate=32_000),
            model=model, rng=self.rng, phase_jitter=jitter,
        )
        self.reads = []

    # One method per script step ---------------------------------------
    def graft(self, layer):
        self.src.set_forwarding(self._group(layer), {"dst"})

    def prune(self, layer):
        self.src.set_forwarding(self._group(layer), None)

    def listen(self, layer):
        g = self._group(layer)
        self.src.add_group_handler(g, self.heard["src", g].append)

    def unlisten(self, layer):
        g = self._group(layer)
        self.src.remove_group_handler(g, self.heard["src", g].append)

    def read(self, _):
        self.reads.append((self.sched.now, self.counters()))

    def _group(self, layer):
        return self.groups[layer % len(self.groups)]

    def counters(self):
        return [s.packets_sent for s in self.source.senders]

    def play(self, script):
        for step, op, arg in script:
            self.sched.at(step / GRID, getattr(self, op), arg)
        self.sched.at(HORIZON / GRID, self.read, None)
        self.source.start()
        self.sched.run(until=HORIZON / GRID)
        return {
            "heard": {key: [p.seq for p in pkts] for key, pkts in self.heard.items()},
            "sent": self.sent,
            "nodes": {node.name: [getattr(node.stats, f) for f in type(node.stats).__slots__]
                      for node in (self.src, self.dst)},
            "reads": self.reads,
            "rng": self.rng.bit_generator.state,
        }


_STEPS = st.tuples(
    st.integers(0, HORIZON - 1),
    st.sampled_from(["graft", "prune", "listen", "unlisten", "read"]),
    st.integers(0, 3),
)
_SCRIPTS = st.lists(_STEPS, max_size=24).map(lambda steps: sorted(steps, key=lambda s: s[0]))


@given(st.sampled_from([CBR, VBR]), st.booleans(), st.integers(1, 4),
       st.integers(0, 2**16), _SCRIPTS)
@settings(max_examples=250, deadline=None)
def test_parked_source_is_the_eager_source_minus_events(model, jitter, n_layers, seed, script):
    eager = Rig(EagerSource, model, jitter, n_layers, seed)
    want = eager.play(script)
    real = Rig(LayeredSource, model, jitter, n_layers, seed)
    got = real.play(script)
    assert got == want
    assert real.sched.events_processed <= eager.sched.events_processed


def test_the_oracle_scripts_do_park_and_wake():
    """The generated scripts are not vacuous: a plain one saves most events,
    and a graft in the middle of a slot is served from a woken train."""
    script = [(GRID + 8, "graft", 0), (4 * GRID + 16, "prune", 0), (4 * GRID + 21, "read", 0)]
    eager, real = (Rig(cls, CBR, False, 4, 0) for cls in (EagerSource, LayeredSource))
    want, got = eager.play(script), real.play(script)
    assert got == want
    # 4 in slot 0, 1 unheard in slot 1; the next is due at the graft instant.
    assert got["heard"]["dst", 1][0] == 5 and got["sent"][1][0] == (5, 1.25)
    assert real.sched.events_processed < eager.sched.events_processed / 2
