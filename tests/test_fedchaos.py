"""Tests for partition-tolerant federation (DESIGN.md §14).

Covers the seeded inter-domain channel (loss/delay/duplication,
partitions), coordinator round fencing and failover epochs, shard-side
retry/timeout and bounded-staleness decay, the controller's session
ceiling clamp, the ``fed_*`` fault-plan builders, and a small end-to-end
``run_fedchaos`` point.
"""

import json

import pytest

from repro.control.messages import FederationAdvice, Report, SubtreeSummary
from repro.faults.injectors import FederationInjector, kinds_of
from repro.faults.plan import FaultPlan
from repro.federation.channel import ChannelImpairment, InterDomainChannel
from repro.federation.chaos import default_fedchaos_plan, run_fedchaos
from repro.federation.coordinator import FederationCoordinator
from repro.federation.experiment import build_federated_views
from repro.federation.session import RETRY_LIMIT, FederatedSession
from repro.federation.shard import DECAY_FLOOR, DomainShard
from repro.simnet.rng import Pcg64, stream_seed


def _views(n_domains=2, receivers_per_domain=2, seed=0):
    return build_federated_views(n_domains, receivers_per_domain, seed=seed)


def _summary(domain="d1", session_id="s0", round_no=1, now=4.0):
    return SubtreeSummary(
        domain=domain, session_id=session_id, gateway=f"gw-{domain}",
        receiver_count=2, mean_loss=0.01, max_loss=0.05,
        min_level=1, max_level=3, level_sum=6, bottleneck_bps=2e5,
        issued_at=now, round=round_no,
    )


def _advice(session_id="s0", ceiling=4, epoch=1, round_no=1):
    return FederationAdvice(
        session_id=session_id, ceiling=ceiling, floor=1, receiver_count=4,
        bottleneck_bps=1e5, issued_at=4.0, epoch=epoch, round=round_no,
    )


# ----------------------------------------------------------------------
# Channel
# ----------------------------------------------------------------------


class TestChannel:
    def test_seed_stable_and_per_domain_direction(self):
        # Each send draws exactly one loss roll from the stream
        # "fedchan/<domain>/<direction>" of the channel's seed.
        for seed, domain, direction in (
            (3, "d1", "up"), (3, "d2", "up"), (3, "d1", "down"),
            (4, "d1", "up"),
        ):
            ch = InterDomainChannel(seed=seed)
            ch.set_impairment(loss=0.5)
            send = ch.send_up if direction == "up" else ch.send_down
            outcomes = [send(domain, _summary(), r) for r in range(20)]
            stream = Pcg64(stream_seed(seed, f"fedchan/{domain}/{direction}"))
            assert outcomes == [
                "lost" if stream.random() < 0.5 else "delivered"
                for _ in range(20)
            ]

    def test_impairment_validation(self):
        with pytest.raises(ValueError, match="loss"):
            ChannelImpairment(loss=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            ChannelImpairment(duplicate=-0.1)
        with pytest.raises(ValueError, match="delay_rounds"):
            ChannelImpairment(delay_rounds=-1)
        assert ChannelImpairment().perfect
        assert not ChannelImpairment(loss=0.5).perfect

    def test_perfect_channel_always_delivers(self):
        ch = InterDomainChannel(seed=1)
        for r in range(5):
            assert ch.send_up("d1", _summary(), r) == "delivered"
        assert ch.stats["up_delivered"] == 5 and ch.stats["up_lost"] == 0
        assert ch.in_flight() == 0

    def test_loss_is_seeded_and_deterministic(self):
        outcomes = []
        for _ in range(2):
            ch = InterDomainChannel(seed=3)
            ch.set_impairment(loss=0.5)
            outcomes.append([
                ch.send_up("d1", _summary(), r) for r in range(40)
            ])
        assert outcomes[0] == outcomes[1]
        assert "lost" in outcomes[0] and "delivered" in outcomes[0]

    def test_delay_queues_and_due_drains_in_order(self):
        ch = InterDomainChannel(seed=2)
        ch.set_impairment(delay_rounds=2)
        sent = [_summary(round_no=r) for r in range(30)]
        delayed = [
            m for m in sent if ch.send_up("d1", m, 1) == "delayed"
        ]
        assert delayed, "delay_rounds=2 never delayed in 30 sends"
        assert ch.in_flight() == len(delayed)
        drained = []
        for r in range(2, 5):
            drained.extend(msg for _dir, _dom, msg in ch.due(r))
        # every delayed copy resurfaces exactly once (order is by due round)
        assert sorted(m.round for m in drained) == sorted(
            m.round for m in delayed
        )
        assert ch.in_flight() == 0

    def test_duplicate_delivers_now_and_queues_copy(self):
        ch = InterDomainChannel(seed=1)
        ch.set_impairment(duplicate=1.0)
        msg = _summary(round_no=1)
        assert ch.send_up("d1", msg, 1) == "delivered"
        assert ch.stats["up_duplicated"] == 1
        (dup,) = ch.due(2)
        assert dup == ("up", "d1", msg)

    def test_partition_drops_both_new_and_in_flight(self):
        ch = InterDomainChannel(seed=1)
        ch.set_impairment(delay_rounds=3)
        while ch.send_down("d2", _advice(), 1) != "delayed":
            pass
        ch.partition("d2")
        assert ch.send_up("d2", _summary("d2"), 2) == "lost"
        assert ch.stats["up_partitioned"] == 1
        # the delayed advice was in flight across the cut: dropped on due
        assert ch.due(10) == []
        ch.heal("d2")
        assert ch.send_up("d2", _summary("d2"), 11) in (
            "delivered", "delayed"
        )

    def test_per_domain_override_and_clear(self):
        ch = InterDomainChannel(seed=1)
        ch.set_impairment(loss=0.9)
        ch.set_impairment(domain="d1")  # d1 override: perfect
        assert ch.impairment_for("d1").perfect
        assert ch.impairment_for("d2").loss == 0.9
        ch.set_impairment()  # a perfect mesh clears the global loss
        assert ch.impairment_for("d2").perfect
        assert ch.impairment_for("d1").perfect
        assert ch.summary()["partitioned"] == []


# ----------------------------------------------------------------------
# Coordinator fencing + failover
# ----------------------------------------------------------------------


class TestCoordinatorFencing:
    def test_stale_round_dropped_and_counted_separately(self):
        coord = FederationCoordinator()
        assert coord.receive(_summary(round_no=2)) is True
        assert coord.receive(_summary(round_no=2)) is False  # retry dup
        assert coord.receive(_summary(round_no=1)) is False  # delayed copy
        assert coord.receive(_summary(round_no=3)) is True
        assert coord.stale_rejected == 2 and coord.type_rejected == 0
        with pytest.raises(TypeError):
            coord.receive(Report(receiver_id="R0", session_id="s0",
                                 loss_rate=0.1, bytes=1e4, level=2,
                                 t0=0.0, t1=4.0, seq=1))
        assert coord.type_rejected == 1
        assert coord.stale_rejected == 2

    def test_round_zero_summaries_are_fenced_too(self):
        coord = FederationCoordinator()
        assert coord.receive(_summary(round_no=0)) is True
        for _ in range(2):
            assert coord.receive(_summary(round_no=0)) is False
        assert coord.stale_rejected == 2

    def test_merge_stamps_epoch_and_round(self):
        coord = FederationCoordinator(epoch=4)
        coord.receive(_summary(round_no=1))
        (advice,) = coord.merge(now=8.0, round_no=7)
        assert advice.epoch == 4 and advice.round == 7

    def test_merge_is_order_independent(self):
        batches = [
            _summary("d1", round_no=1),
            _summary("d2", "s0", round_no=1),
            _summary("d1", "s1", round_no=1),
        ]
        results = []
        for order in (batches, list(reversed(batches))):
            coord = FederationCoordinator()
            for s in order:
                coord.receive(s)
            results.append(coord.merge(now=8.0, round_no=1))
        assert results[0] == results[1]

    def test_resume_from_replicated_store(self):
        old = FederationCoordinator(epoch=1)
        old.receive(_summary("d1"))
        old.receive(_summary("d2"))
        standby = FederationCoordinator(epoch=2)
        standby.resume_from(old.replicated_summaries())
        assert standby.tracked() == 2
        assert standby.peak_tracked == 2
        (advice,) = standby.merge(now=8.0, round_no=3)
        assert advice.epoch == 2 and advice.receiver_count == 4


# ----------------------------------------------------------------------
# Shard fencing, retries and bounded staleness
# ----------------------------------------------------------------------


class TestShardStaleness:
    def _shard(self, **kw):
        return DomainShard(_views()[0], seed=1, **kw)

    def test_deliver_advice_fences_epoch_and_round(self):
        shard = self._shard()
        assert shard.deliver_advice(_advice(epoch=2, round_no=5)) is True
        assert shard.advice_epoch == 2
        # deposed coordinator's epoch: rejected
        assert shard.deliver_advice(_advice(epoch=1, round_no=9)) is False
        # duplicate/older round at the same epoch: rejected
        assert shard.deliver_advice(_advice(epoch=2, round_no=5)) is False
        assert shard.deliver_advice(_advice(epoch=2, round_no=4)) is False
        # fresher round, and a newer epoch, both pass
        assert shard.deliver_advice(_advice(epoch=2, round_no=6)) is True
        assert shard.deliver_advice(_advice(epoch=3, round_no=1)) is True
        assert shard.stale_rejected == 3

    def test_epoch_and_round_zero_advice_fenced(self):
        shard = self._shard()
        assert shard.deliver_advice(_advice(epoch=0, round_no=0)) is True
        # a repeated round 0 is a duplicate like any other
        assert shard.deliver_advice(_advice(epoch=0, round_no=0)) is False
        assert shard.deliver_advice(_advice(epoch=1, round_no=1)) is True
        # epoch 0 is below the epoch now held: a deposed coordinator
        assert shard.deliver_advice(_advice(epoch=0, round_no=9)) is False
        assert shard.stale_rejected == 2

    def test_roll_staleness_decays_past_budget(self):
        shard = self._shard(staleness_budget=2)
        sid = shard.view.sessions[0]
        shard.deliver_advice(_advice(session_id=sid, ceiling=4,
                                     epoch=1, round_no=1))
        # age 2 = within budget: no clamp
        shard.roll_staleness(round_no=3, now=12.0)
        assert sid not in shard.controller.session_ceilings
        assert shard.ceiling_log[-1]["effective_ceiling"] is None
        # age 4 = two rounds past budget: shed two layers
        shard.roll_staleness(round_no=5, now=20.0)
        assert shard.controller.session_ceilings[sid] == 2
        assert shard.decayed_rounds == 1
        # deep staleness bottoms out at the decay floor
        shard.roll_staleness(round_no=50, now=200.0)
        assert shard.controller.session_ceilings[sid] == DECAY_FLOOR == 1
        # fresh advice clears the clamp
        shard.deliver_advice(_advice(session_id=sid, ceiling=4,
                                     epoch=1, round_no=50))
        shard.roll_staleness(round_no=51, now=204.0)
        assert sid not in shard.controller.session_ceilings

    def test_controller_honours_session_ceiling(self):
        shard = self._shard()
        sid = shard.view.sessions[0]
        shard.controller.session_ceilings[sid] = 1
        shard.run_to(24.0)
        controller = shard.controller
        assert controller.suggestions_clamped > 0
        # last_suggested holds what was actually sent, post-clamp
        assert all(
            entry.last_suggested <= 1 for entry in controller.receivers[sid].values()
            if entry.last_suggested is not None
        )

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            self._shard(staleness_budget=-1)
        # The decay floor is the constant DECAY_FLOOR, settable nowhere.
        with pytest.raises(TypeError):
            self._shard(decay_floor=1)
        with pytest.raises(TypeError):
            FederatedSession(_views(), seed=1, decay_floor=1)


# ----------------------------------------------------------------------
# Federated session under faults
# ----------------------------------------------------------------------


class TestFederatedSessionFaults:
    def test_retries_and_timeouts_on_lossy_channel(self):
        fed = FederatedSession(_views(seed=1), seed=1, cadence=4.0)
        ch = fed.channel
        ch.set_impairment(loss=0.6)
        fed.run(32.0)
        retries = sum(s.summary_retries for s in fed.shards.values())
        assert retries > 0
        assert ch.stats["up_lost"] > 0
        # every retry is charged to the summary byte tier
        from repro.control.messages import SUMMARY_SIZE

        charged = sum(s.summary_bytes_sent for s in fed.shards.values())
        assert charged == ch.stats["up_sent"] * SUMMARY_SIZE

    def test_crashed_coordinator_ingests_nothing(self):
        # No plan: the session's perfect channel is still the only wire,
        # so a dead coordinator acks nothing and every summary times out.
        fed = FederatedSession(_views(seed=1), seed=1, cadence=4.0)
        fed.run(8.0)
        received = fed.coordinator.summaries_received
        assert received == 2 * 2  # 2 rounds x 2 domains x 1 session
        fed.crash_coordinator()
        fed.run(8.0)
        assert fed.coordinator.summaries_received == received
        timeouts = sum(s.summary_timeouts for s in fed.shards.values())
        assert timeouts == 2 * 2
        assert fed.channel.stats["dead_coordinator_drops"] == (
            timeouts * RETRY_LIMIT
        )

    def test_failover_bumps_epoch_and_fences_old_advice(self):
        fed = FederatedSession(_views(seed=1), seed=1, cadence=4.0)
        fed.run(8.0)
        old = fed.coordinator
        stored = old.tracked()
        fed.crash_coordinator()
        standby = fed.failover_coordinator()
        assert standby.epoch == old.epoch + 1
        assert standby.tracked() == stored  # warm start
        assert fed.failover_rounds == [3]
        fed.run(8.0)
        for shard in fed.shards.values():
            assert shard.advice_epoch == standby.epoch
            # anything the deposed coordinator had in flight is rejected
            deposed = _advice(
                session_id=shard.view.sessions[0],
                epoch=old.epoch, round_no=99,
            )
            assert shard.deliver_advice(deposed) is False
        totals = fed.coordinator_totals()
        assert totals["generations"] == 2
        assert totals["epoch"] == standby.epoch

    def test_plan_rejects_non_federation_kinds(self):
        plan = FaultPlan().add(4.0, "link_down", "gw1", "gw2")
        with pytest.raises(ValueError, match="fed_"):
            FederatedSession(_views(), seed=1, plan=plan)

    def test_plan_driven_faults_fire_at_round_barriers(self):
        plan = (FaultPlan()
                .add(4.0, "fed_link_degrade", loss=0.9)
                .add(8.0, "fed_partition", "d2")
                .add(12.0, "fed_heal", "d2")
                .add(12.0, "fed_coordinator_kill")
                .add(16.0, "fed_coordinator_failover"))
        fed = FederatedSession(_views(seed=1), seed=1, cadence=4.0,
                               plan=plan)
        fed.run(20.0)
        kinds = [kind for (_t, kind, _d) in fed.fault_log]
        assert kinds == ["fed_link_degrade", "fed_partition",
                         "fed_coordinator_kill", "fed_heal", "fed_coordinator_failover"]
        assert sorted(kinds) == sorted(kinds_of(FederationInjector))  # each once
        assert fed.failover_rounds == [4]
        assert fed.coordinator.epoch == 2

    def test_emits_fault_topics(self):
        from repro.obs.bus import EventBus

        bus = EventBus()
        seen = set()
        for topic in ("federation.retry", "federation.timeout",
                      "federation.failover", "federation.stale"):
            bus.subscribe(topic, lambda ev: seen.add(ev.topic))
        plan = default_fedchaos_plan(cadence=4.0, loss=0.5, domain="d2")
        fed = FederatedSession(_views(3, seed=1), seed=1, cadence=4.0,
                               plan=plan, bus=bus, staleness_budget=1)
        fed.run(48.0)
        assert seen == {"federation.retry", "federation.timeout",
                        "federation.failover", "federation.stale"}

    def test_injector_rejects_foreign_kinds(self):
        fed = FederatedSession(_views(), seed=1)
        inj = FederationInjector(fed)
        with pytest.raises(ValueError, match="federation fault"):
            inj.execute("link_down", ("a", "b"), {})


# ----------------------------------------------------------------------
# Fault-plan builders
# ----------------------------------------------------------------------


class TestFedFaultPlan:
    def test_builders_round_trip_through_json(self):
        plan = default_fedchaos_plan()
        blob = json.dumps(plan.to_dicts())
        again = FaultPlan.from_dicts(json.loads(blob))
        assert again.to_dicts() == plan.to_dicts()
        kinds = {e.kind for e in plan.events}
        assert kinds == {"fed_link_degrade", "fed_partition", "fed_heal",
                         "fed_coordinator_kill", "fed_coordinator_failover"}

    def test_partition_window_orders_and_validates(self):
        plan = FaultPlan().partition_window(8.0, 16.0, "d2")
        assert [e.kind for e in plan.events] == ["fed_partition", "fed_heal"]
        with pytest.raises(ValueError):
            FaultPlan().partition_window(8.0, 8.0, "d2")

    def test_degrade_validates_rates(self):
        # The channel checks the rates when the event fires.
        plan = FaultPlan().add(4.0, "fed_link_degrade", loss=1.5)
        fed = FederatedSession(_views(), seed=1, cadence=4.0, plan=plan)
        with pytest.raises(ValueError, match="loss"):
            fed.run(8.0)

    def test_clear_times_pair_fed_breakers(self):
        plan = (FaultPlan()
                .partition_window(4.0, 12.0, "d2")
                .add(8.0, "fed_coordinator_kill")
                .add(16.0, "fed_coordinator_failover"))
        assert plan.clear_times() == [12.0, 16.0]

    def test_default_plan_validates_ordering(self):
        with pytest.raises(ValueError):
            default_fedchaos_plan(kill_round=9, failover_round=9)
        with pytest.raises(ValueError):
            default_fedchaos_plan(partition_rounds=0)


# ----------------------------------------------------------------------
# The fedchaos experiment
# ----------------------------------------------------------------------


class TestRunFedchaos:
    def test_single_point_passes_gates(self):
        result = run_fedchaos(
            seed=1, n_domains=2, receivers_per_domain=4,
            loss_rates=(0.2,), partition_rounds=(3,),
        )
        assert result["ok"], result["gates"]
        (point,) = result["points"]
        assert point["recovery"]["ok"] and point["overshoot"]["ok"]
        assert point["overshoot"]["checked"] > 0  # gate is non-vacuous
        assert point["faulted"]["coordinator"]["epoch"] == 2
        # the whole result is JSON-serialisable for CI round-trips
        json.dumps(result, default=str)

    def test_validation(self):
        with pytest.raises(ValueError, match="two domains"):
            run_fedchaos(n_domains=1)
        with pytest.raises(ValueError, match="partition_domain"):
            run_fedchaos(n_domains=2, partition_domain="d9")
