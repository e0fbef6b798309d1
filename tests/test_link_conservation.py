"""Per-link packet conservation, checked at the end of whole runs.

Every packet offered to a link (counted here by wrapping ``Link.send``) is,
when the run ends, exactly one of: transmitted (``tx_packets``), on the wire
(``busy``), waiting in the link's FIFO (``backlog``), or dropped — refused
by the queue discipline or lost to a downed link, the flushed waiting
packets of a ``set_down`` included.  Channel losses on a wireless edge
happen after serialization, so they are part of ``tx_packets`` and can
never exceed it.

The runs are the smoke builds of the four ``bench/`` workloads (the same
constructions ``tests/test_observable_digest.py`` pins), ``churn_repair`` at
its benchmark size (its six ``set_down`` calls flush 30 waiting packets; the
smoke build's flush none), a lossy wireless crowd and the ``ablation_red``
row's RED scenario.  Each case also names the drop reason it must exercise,
so a run that never drops cannot pass for conserving.
"""

from collections import Counter

import pytest

from repro.experiments.churn import build_churn_scenario, churn_receiver_ids
from repro.experiments.crowd import build_crowd_scenario
from repro.experiments.figures import _red_scenario
from repro.faults.plan import FaultPlan
from repro.simnet.link import DROP_LINK_DOWN, DROP_QUEUE_FULL, DROP_WIRELESS, Link
from test_observable_digest import churn_repair, fed_crowd, join_ramp, pkt_steady


@pytest.fixture
def offers(monkeypatch):
    """Packets offered per link, counted at ``Link.send`` (a wireless edge's
    ``send`` calls it too)."""
    counts = Counter()
    send = Link.send

    def counting_send(self, pkt):
        counts[self] += 1
        return send(self, pkt)

    monkeypatch.setattr(Link, "send", counting_send)
    return counts


def churn_repair_full(seed):
    n = 64
    sc = build_churn_scenario(seed=seed, n_receivers=n)
    plan = FaultPlan()
    plan.membership_churn(
        [rid for rid in churn_receiver_ids(n) if rid != "A1"],
        start=10.0, end=80.0, rate=1.0, burst=1, off_time=(4.0, 12.0), seed=seed,
    )
    for a, b, at, down_for in (("core", "agg_a", 40.0, 5.0), ("agg_a", "ra1", 60.0, 6.0),
                               ("core", "agg_b", 80.0, 5.0)):
        plan.link_flap(at, a, b, down_for=down_for, times=1)
    plan.apply(sc)
    sc.run(110.0)
    return {"main": sc}, None


def wireless_crowd(seed):
    sc, _ = build_crowd_scenario(seed=seed, n_edges=8, n_sessions=2, wireless_loss=0.15)
    sc.run(30.0)
    return {"main": sc}, None


def red(seed):
    sc = _red_scenario(seed, red=True)
    sc.run(60.0)
    return {"main": sc}, None


def conservation_faults(scenarios, offers):
    """One line per link that breaks conservation; the drops by reason
    summed over every link."""
    faults, total = [], Counter()
    for label, sc in sorted(scenarios.items()):
        for (u, v), link in sorted(sc.network.links.items(), key=lambda kv: str(kv[0])):
            stats, drops = link.stats, link.drops
            total.update(drops)
            held = stats.tx_packets + link.busy + link.backlog
            refused = drops[DROP_QUEUE_FULL] + drops[DROP_LINK_DOWN]
            if offers[link] != held + refused:
                faults.append(f"{label} {u}->{v}: offered {offers[link]} != "
                              f"held {held} + dropped {refused}")
            if drops[DROP_WIRELESS] > stats.tx_packets:
                faults.append(f"{label} {u}->{v}: {drops[DROP_WIRELESS]} channel drops > "
                              f"{stats.tx_packets} transmitted")
    return faults, total


CASES = {
    pkt_steady: DROP_QUEUE_FULL,
    join_ramp: DROP_QUEUE_FULL,
    churn_repair: DROP_QUEUE_FULL,
    churn_repair_full: DROP_LINK_DOWN,
    fed_crowd: DROP_QUEUE_FULL,
    wireless_crowd: DROP_WIRELESS,
    red: DROP_QUEUE_FULL,
}


@pytest.mark.parametrize("build", list(CASES), ids=[b.__name__ for b in CASES])
def test_every_offer_is_held_or_dropped_once(build, offers):
    scenarios, _ = build(1)
    faults, total = conservation_faults(scenarios, offers)
    assert faults == []
    assert total[CASES[build]] > 0
