"""Unit tests for the RLM (receiver-driven) baseline."""

import numpy as np
import pytest

from repro.baselines import rlm as rlm_module
from repro.baselines.rlm import RLMReceiver
from repro.media.layers import LayerSchedule
from repro.media.receiver import LayeredReceiver
from repro.media.source import LayeredSource
from repro.multicast.manager import MulticastManager
from repro.simnet.engine import Scheduler
from repro.simnet.topology import Network

pytestmark = pytest.mark.usefixtures("no_igmp_delay")


def build(bottleneck=10e6, n_layers=4):
    sched = Scheduler()
    net = Network(sched)
    for n in ["s", "m", "r"]:
        net.add_node(n)
    net.add_link("s", "m", bandwidth=10e6, delay=0.05)
    net.add_link("m", "r", bandwidth=bottleneck, delay=0.05, queue_limit=8)
    net.build_routes()
    mcast = MulticastManager(net, leave_latency=0.5)
    schedule = LayerSchedule(n_layers=n_layers, base_rate=32_000)
    groups = tuple(mcast.create_group("s") for _ in range(n_layers))
    src = LayeredSource(net.node("s"), 0, groups, schedule, model="cbr")
    src.start()
    rcv = LayeredReceiver(net.node("r"), 0, list(groups), schedule, mcast, initial_level=1)
    rlm = RLMReceiver(rcv, rng=np.random.default_rng(0))
    return sched, rcv, rlm


def test_climbs_when_capacity_available():
    sched, rcv, rlm = build(bottleneck=10e6)
    rlm.start()
    sched.run(until=60.0)
    assert rcv.level == 4
    assert rlm.successful_experiments >= 3


def test_converges_near_bottleneck():
    # 100 Kb/s: fits layers 1+2 (96k), not 3 (224k).
    sched, rcv, rlm = build(bottleneck=100e3)
    rlm.start()
    sched.run(until=120.0)
    mean = rcv.trace.time_weighted_mean(40.0, 120.0)
    assert 1.3 <= mean <= 2.7
    assert rlm.failed_experiments >= 1
    assert rlm.drops >= 1


def test_failed_experiment_backs_off_exponentially():
    sched, rcv, rlm = build(bottleneck=100e3)
    rlm.start()
    sched.run(until=200.0)
    # Layer 3's join timer should have grown beyond its initial value.
    assert rlm.join_timer[3] > rlm_module.T_JOIN_INIT


def test_join_timer_capped(monkeypatch):
    monkeypatch.setattr(rlm_module, "T_JOIN_MAX", 20.0)
    sched, rcv, rlm = build(bottleneck=100e3)
    rlm.start()
    sched.run(until=400.0)
    assert rlm.join_timer[3] <= 20.0


def test_successful_experiment_relaxes_timer():
    sched, rcv, rlm = build(bottleneck=10e6)
    rlm.join_timer[2] = 40.0
    rlm.next_join_at[2] = 0.0
    rlm.start()
    sched.run(until=30.0)
    assert rlm.join_timer[2] < 40.0


def test_deaf_period_after_drop():
    sched, rcv, rlm = build(bottleneck=100e3)
    rlm.start()
    sched.run(until=120.0)
    # Drops happen but not on every tick: the deaf period spaces them.
    assert rlm.drops < 120 / (rlm_module.DEAF_TIME + rlm_module.INTERVAL) + 5


def test_never_drops_below_base_layer():
    sched, rcv, rlm = build(bottleneck=10e3)  # below base rate: constant loss
    rlm.start()
    sched.run(until=60.0)
    assert rcv.level == 1


def test_start_twice_noop():
    sched, rcv, rlm = build()
    rlm.start()
    rlm.start()
    sched.run(until=10.0)
    # One adaptation loop only: at most one level change per interval.
    assert rcv.trace.num_changes(0.0, 10.0) <= 10
