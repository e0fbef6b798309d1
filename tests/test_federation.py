"""Tests for the federated multi-domain control plane.

Covers the partitioner's clipping (explicit assignments and gateway-subtree
derivation, on both the hand-built multi-domain topology and the random
tiered generator), shard isolation and seeding, the coordinator's
aggregates-only contract, same-seed replay identity, the shard-isolation
oracle, and a small end-to-end ``run_federate`` sweep.
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
from repro.experiments.domains import (
    build_multi_domain_topology,
    domain_gateways,
)
from repro.experiments.tiered import build_tiered_topology
from repro.federation import (
    BORDER_NODE,
    DomainPartitioner,
    DomainShard,
    FederatedSession,
    FederationCoordinator,
    build_federated_views,
    run_federate,
)
from repro.simnet.rng import stream_seed


def _views(n_domains=2, receivers_per_domain=2, seed=0, traffic="cbr"):
    return build_federated_views(
        n_domains, receivers_per_domain, seed=seed, traffic=traffic
    )


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------


class TestPartitioner:
    def test_by_gateways_multi_domain(self):
        sc = build_multi_domain_topology(n_domains=3, receivers_per_domain=2)
        views = DomainPartitioner.by_gateways(
            sc, domain_gateways(3)
        ).partition(sc)
        assert sorted(views) == ["d1", "d2", "d3"]
        for d, view in views.items():
            k = d[1:]
            assert str(view.gateway) == f"gw{k}"
            assert view.receiver_count == 2
            # backbone stays outside every domain
            names = set(map(str, view.nodes))
            assert "src" not in names and "core" not in names
            assert all(r.node in view.nodes for r in view.receivers)

    def test_view_captures_link_attributes(self):
        sc = build_multi_domain_topology(n_domains=2, receivers_per_domain=2)
        (view,) = [
            v for v in DomainPartitioner.by_gateways(
                sc, domain_gateways(2)
            ).partition(sc).values()
            if v.domain == "d1"
        ]
        # the border uplink is core -> gw1
        uplink = sc.network.links[("core", "gw1")]
        assert view.uplink_bandwidth == uplink.bandwidth
        assert view.uplink_delay == uplink.delay
        assert view.uplink_queue_limit == uplink.queue.capacity
        # intra links are deduplicated (one record per bidirectional pair)
        pairs = {frozenset((str(l.a), str(l.b))) for l in view.links}
        assert len(pairs) == len(view.links)

    def test_by_gateways_tiered(self):
        sc = build_tiered_topology(seed=7, max_receivers=8)
        gateways = {
            str(n): n for n in sc.network.nodes if str(n).startswith("regional")
        }
        views = DomainPartitioner.by_gateways(sc, gateways).partition(sc)
        assert set(views) == set(map(str, gateways))
        covered = sum(v.receiver_count for v in views.values())
        assert covered == len(sc.receivers)  # every receiver in some domain
        for view in views.values():
            assert str(view.gateway).startswith("regional")

    def test_unknown_gateway_raises(self):
        sc = build_multi_domain_topology()
        with pytest.raises(KeyError):
            DomainPartitioner.by_gateways(sc, {"dX": "nope"})

    def test_source_inside_domain_raises(self):
        sc = build_multi_domain_topology()
        nodes = set(map(str, sc.network.nodes))
        assignment = {n: "all" for n in sc.network.nodes}
        assert "src" in nodes
        with pytest.raises(ValueError, match="source"):
            DomainPartitioner(assignment).partition(sc)

    def test_multiple_border_entries_raise(self):
        # Lump both gateways' subtrees into ONE domain: traffic then enters
        # through two border links, which single-gateway views must reject.
        sc = build_multi_domain_topology(n_domains=2, receivers_per_domain=2)
        merged = {
            node: "merged"
            for node, _d in DomainPartitioner.by_gateways(
                sc, domain_gateways(2)
            ).assignment.items()
        }
        with pytest.raises(ValueError, match="border"):
            DomainPartitioner(merged).partition(sc)

    def test_empty_assignment_rejected(self):
        with pytest.raises(ValueError):
            DomainPartitioner({})

    def test_unknown_nodes_in_explicit_assignment(self):
        sc = build_multi_domain_topology()
        with pytest.raises(KeyError, match="unknown nodes"):
            DomainPartitioner({"no-such-node": "d1"}).partition(sc)

    def test_multi_entry_error_names_the_domain(self):
        sc = build_multi_domain_topology(n_domains=2, receivers_per_domain=2)
        merged = {
            node: "merged"
            for node in DomainPartitioner.by_gateways(
                sc, domain_gateways(2)
            ).assignment
        }
        with pytest.raises(ValueError, match="'merged'"):
            DomainPartitioner(merged).partition(sc)

    def test_unreachable_domain_error_names_the_domain(self):
        sc = build_multi_domain_topology()
        sc.add_node("island")  # no links: no path from any source
        with pytest.raises(ValueError, match="'dX' unreachable"):
            DomainPartitioner({"island": "dX"}).partition(sc)

    def test_by_gateways_needs_sessions(self):
        sc = build_multi_domain_topology()
        sc.sessions.clear()
        with pytest.raises(ValueError, match="no sessions"):
            DomainPartitioner.by_gateways(sc, domain_gateways(2))


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
        """Shard isolation: up to the first barrier each shard inside the
        federation is indistinguishable from the same shard run alone."""
        views = _views(n_domains=4, receivers_per_domain=2, seed=2)
        fed = FederatedSession(views, seed=2, cadence=4.0)
        fed.run(4.0)
        for view in views:
            alone = DomainShard(view, seed=2)
            alone.run_to(4.0)
            inside = fed.shards[str(view.domain)]
            assert (inside.scenario.sched.events_processed
                    == alone.scenario.sched.events_processed)
            assert _shard_traces(inside) == _shard_traces(alone)

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
