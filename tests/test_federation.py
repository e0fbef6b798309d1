"""Tests for the federated multi-domain control plane.

Covers the domain views built from the multi-domain layout (held to the
two-domain scenario, past the 11-domain name boundary), shard isolation
and seeding, the coordinator's aggregates-only contract, same-seed replay
identity, the shard-isolation oracle, and a small end-to-end
``run_federate`` sweep.
"""

import dataclasses

import pytest

from repro.control.messages import (
    ADVICE_SIZE,
    SUMMARY_SIZE,
    FederationAdvice,
    Report,
    SubtreeSummary,
)
from repro.experiments.domains import build_two_domain_topology
from repro.experiments.topologies import BACKBONE_BW
from repro.federation.coordinator import FederationCoordinator
from repro.federation.experiment import build_federated_views, run_federate
from repro.federation.session import FederatedSession
from repro.federation.shard import BORDER_NODE, DomainReceiver, DomainShard, DomainView
from repro.simnet.rng import stream_seed


def _views(n_domains=2, receivers_per_domain=2, seed=0):
    return build_federated_views(n_domains, receivers_per_domain, seed=seed)


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------


class TestViews:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_views_match_two_domain_topology(self, k):
        """The views and the two-domain scenario describe one layout."""
        sc = build_two_domain_topology(receivers_per_domain=k)
        links = sc.network.links
        views = build_federated_views(2, k)
        assert [v.domain for v in views] == ["d1", "d2"]
        for view in views:
            domain = sc.controllers[view.domain].discovery.domain
            assert [n for n in sorted(domain) if ("core", n) in links] == [
                view.gateway
            ]
            assert view.nodes == tuple(sorted(domain))
            intra = {(a, b) for (a, b) in links if a in domain and b in domain}
            assert len(view.links) * 2 == len(intra)
            for a, b, bandwidth in view.links:
                assert links[(a, b)].bandwidth == bandwidth
            assert view.uplink_bandwidth == links[("core", view.gateway)].bandwidth
            assert view.sessions == tuple(sc.sessions)
            assert [(r.receiver_id, r.node, r.session_id)
                    for r in view.receivers] == [
                (h.receiver_id, h.node, h.session_id)
                for h in sc.receivers if h.controller_name == view.domain
            ]

    def test_three_domain_view_pinned(self):
        d3 = build_federated_views(3, 2)[2]
        assert d3 == DomainView(
            domain="d3",
            nodes=("gw3", "r30", "r31"),
            links=(("gw3", "r30", 500_000.0), ("gw3", "r31", 500_000.0)),
            gateway="gw3",
            uplink_bandwidth=BACKBONE_BW,
            sessions=(0,),
            receivers=(
                DomainReceiver("D3-0", 0, "r30"),
                DomainReceiver("D3-1", 0, "r31"),
            ),
        )
        assert d3.receiver_count == 2

    def test_twelve_domains_build_and_run(self):
        """``r1``+``10`` and ``r11``+``0`` are one name in two shards."""
        views = {v.domain: v for v in build_federated_views(12, 12)}
        assert list(views) == sorted(f"d{d}" for d in range(1, 13))
        assert "r110" in views["d1"].nodes and "r110" in views["d11"].nodes
        result = run_federate(
            total_receivers=144, domain_counts=[2, 12], duration=20.0
        )
        assert result["ok"], result["gates"]
        assert [p["n_receivers"] for p in result["points"]] == [144, 144]

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            build_federated_views(0, 2)
        with pytest.raises(ValueError):
            build_federated_views(2, 0)


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------


def _shard_traces(shard):
    return [
        (str(h.receiver_id), list(h.trace.times), list(h.trace.values),
         h.receiver.level)
        for h in shard.scenario.receivers
    ]


class TestShard:
    def test_shard_seed_stable_and_per_domain(self):
        d1, d2 = _views(n_domains=2)
        # BLAKE2 of "1:fed/d1": pinned so every shard stream stays the same.
        assert DomainShard(d1, seed=1).seed == 6154475561874454725
        assert stream_seed(1, "fed/d1") == 6154475561874454725
        assert DomainShard(d2, seed=1).seed == stream_seed(1, "fed/d2")
        assert DomainShard(d1, seed=2).seed == stream_seed(2, "fed/d1")
        assert len({stream_seed(s, f"fed/{d}")
                    for s in (1, 2) for d in ("d1", "d2")}) == 4

    def test_rebuild_is_standalone(self):
        view = _views(n_domains=2)[0]
        shard = DomainShard(view, seed=1)
        names = set(map(str, shard.scenario.network.nodes))
        assert BORDER_NODE in names
        assert names - {BORDER_NODE} == set(map(str, view.nodes))
        assert len(shard.scenario.receivers) == view.receiver_count
        # controller is domain-scoped at the gateway
        assert str(view.domain) in shard.scenario.controllers

    def test_deterministic_run(self):
        view = _views(n_domains=2)[0]
        traces = []
        for _ in range(2):
            shard = DomainShard(view, seed=3)
            shard.run_to(24.0)
            traces.append(_shard_traces(shard))
        assert traces[0] == traces[1]

    def test_seed_independent_of_sibling_domains(self):
        """A domain's shard seed never depends on how many siblings exist."""
        s2 = DomainShard(_views(n_domains=2, seed=0)[0], seed=5)
        s4 = DomainShard(_views(n_domains=4, seed=0)[0], seed=5)
        assert s2.seed == s4.seed

    def test_summaries_aggregate_only(self):
        view = _views(n_domains=2)[0]
        shard = DomainShard(view, seed=1)
        shard.run_to(12.0)
        (summary,) = shard.summaries(12.0, round_no=3)
        assert isinstance(summary, SubtreeSummary)
        assert summary.receiver_count == view.receiver_count
        assert summary.min_level <= summary.max_level
        assert summary.bottleneck_bps >= 0.0
        # nothing receiver-granular in the schema
        fields = {f.name for f in dataclasses.fields(SubtreeSummary)}
        assert "receiver_id" not in fields and "node" not in fields
        assert shard.summary_bytes_sent == SUMMARY_SIZE

    def test_deliver_advice_type_checked(self):
        shard = DomainShard(_views()[0], seed=1)
        with pytest.raises(TypeError):
            shard.deliver_advice("not advice")
        advice = FederationAdvice(
            session_id="s0", ceiling=4, floor=1, receiver_count=8,
            bottleneck_bps=1e5, issued_at=4.0, epoch=1, round=1,
        )
        assert shard.deliver_advice(advice) is True
        assert shard.advice["s0"] is advice
        assert shard.advice_received == 1


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


def _summary(domain="d1", session_id="s0", receivers=2, min_level=1,
             max_level=3, bottleneck=2e5, now=4.0, round_no=1):
    return SubtreeSummary(
        domain=domain, session_id=session_id, gateway=f"gw-{domain}",
        receiver_count=receivers, mean_loss=0.01, max_loss=0.05,
        min_level=min_level, max_level=max_level,
        level_sum=receivers * max_level, bottleneck_bps=bottleneck,
        issued_at=now, round=round_no,
    )


class TestCoordinator:
    def test_rejects_per_receiver_reports(self):
        coord = FederationCoordinator()
        report = Report(receiver_id="R0", session_id="s0", loss_rate=0.1,
                       bytes=1e4, level=2, t0=0.0, t1=4.0, seq=1)
        with pytest.raises(TypeError, match="SubtreeSummary"):
            coord.receive(report)
        assert coord.type_rejected == 1
        assert coord.tracked() == 0

    def test_merge_spans_domains(self):
        coord = FederationCoordinator()
        coord.receive(_summary("d1", min_level=2, max_level=3, bottleneck=3e5))
        coord.receive(_summary("d2", min_level=1, max_level=5, bottleneck=1e5))
        (advice,) = coord.merge(now=8.0, round_no=1)
        assert advice.ceiling == 5
        assert advice.floor == 1
        assert advice.receiver_count == 4
        assert advice.bottleneck_bps == 1e5

    def test_empty_domain_does_not_drag_ceiling(self):
        coord = FederationCoordinator()
        coord.receive(_summary("d1", min_level=3, max_level=4))
        coord.receive(_summary("d2", receivers=0, min_level=0, max_level=0,
                               bottleneck=0.0))
        (advice,) = coord.merge(now=8.0, round_no=1)
        assert advice.ceiling == 4 and advice.floor == 3
        assert advice.receiver_count == 2

    def test_state_bounded_by_domains_times_sessions(self):
        coord = FederationCoordinator()
        for round_no in range(1, 11):
            for d in ("d1", "d2", "d3"):
                coord.receive(_summary(d, round_no=round_no))
        assert coord.tracked() == 3  # one latest per (session, domain)
        assert coord.peak_tracked == 3
        assert coord.state_bytes() == 3 * SUMMARY_SIZE
        assert coord.summaries_received == 30


# ----------------------------------------------------------------------
# Federated session
# ----------------------------------------------------------------------


def _session_digest(fed):
    return {
        "advice": {
            str(sid): (a.ceiling, a.floor, a.receiver_count, a.bottleneck_bps)
            for sid, a in fed.coordinator.session_advice.items()
        },
        "tiers": fed.control_bytes_by_tier(),
        "events": fed.events_processed,
        "levels": [
            (str(h.receiver_id), h.receiver.level) for h in fed.receivers
        ],
        "rounds": fed.rounds_completed,
    }


class TestFederatedSession:
    def test_same_seed_replay_identical(self):
        views = _views(n_domains=4, receivers_per_domain=2, seed=2)
        digests = []
        for _ in range(2):
            fed = FederatedSession(views, seed=2, cadence=4.0)
            fed.run(24.0)
            digests.append(_session_digest(fed))
        assert digests[0] == digests[1]

    def test_shards_advance_as_if_alone(self):
        """Shard isolation: through a whole fault-free run each shard inside
        the federation processes the same events and traces the same
        receivers as the same shard run alone, and no advice ceiling ever
        clamps a suggestion."""
        for n_domains, per_domain in ((2, 32), (4, 8), (8, 4)):
            views = _views(n_domains, per_domain, seed=3)
            fed = FederatedSession(views, seed=3, cadence=4.0)
            fed.run(60.0)
            for view in views:
                alone = DomainShard(view, seed=3)
                alone.run_to(60.0)
                inside = fed.shards[str(view.domain)]
                assert (inside.scenario.sched.events_processed
                        == alone.scenario.sched.events_processed)
                assert _shard_traces(inside) == _shard_traces(alone)
                assert inside.controller.suggestions_clamped == 0

    def test_control_byte_tiers(self):
        fed = FederatedSession(_views(seed=1), seed=1, cadence=4.0)
        fed.run(16.0)
        tiers = fed.control_bytes_by_tier()
        assert set(tiers) == {"intra_domain", "summary", "advice"}
        # 4 rounds x 2 domains x 1 session each way
        assert tiers["summary"] == 4 * 2 * SUMMARY_SIZE
        assert tiers["advice"] == 4 * 2 * ADVICE_SIZE
        assert tiers["intra_domain"] > tiers["summary"]
        assert fed.control_bytes_total() == sum(tiers.values())

    def test_emits_federation_topics(self):
        from repro.obs.bus import EventBus

        bus = EventBus()
        seen = []
        for topic in ("federation.summary", "federation.suggestion",
                      "federation.round"):
            bus.subscribe(topic, lambda ev, t=topic: seen.append(t))
        fed = FederatedSession(_views(seed=1), seed=1, cadence=4.0, bus=bus)
        fed.run(8.0)
        assert set(seen) == {"federation.summary", "federation.suggestion",
                             "federation.round"}

    def test_duplicate_domains_rejected(self):
        view = _views()[0]
        with pytest.raises(ValueError, match="duplicate"):
            FederatedSession([view, view], seed=1)

    def test_bad_cadence_rejected(self):
        with pytest.raises(ValueError):
            FederatedSession(_views(), seed=1, cadence=0.0)


# ----------------------------------------------------------------------
# The federate experiment
# ----------------------------------------------------------------------


class TestRunFederate:
    def test_small_sweep_passes_gates(self):
        result = run_federate(
            seed=1, duration=20.0, total_receivers=16,
            domain_counts=(2, 4),
        )
        assert result["ok"], result["gates"]
        assert [p["n_domains"] for p in result["points"]] == [2, 4]
        assert all(p["n_receivers"] == 16 for p in result["points"])
        for p in result["points"]:
            assert p["coordinator"]["rejected_messages"] == 0
            assert p["coordinator"]["peak_tracked"] <= (
                p["n_domains"] * len(p["advice"])
            )

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            run_federate(total_receivers=10, domain_counts=(3,),
                         duration=4.0)
