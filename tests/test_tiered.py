"""Tests for the random tiered-topology generator (paper Fig. 2)."""

import pytest

from repro.experiments.tiered import DEFAULT_TIERS, TierSpec, build_tiered_topology


def _topology_fingerprint(sc):
    """Everything structural about a built scenario: nodes, full link
    attributes (bandwidth, delay, queue capacity), receiver placement and
    session wiring."""
    return {
        "nodes": list(map(str, sc.network.nodes)),
        "links": {
            (str(a), str(b)): (link.bandwidth, link.delay, link.discipline.capacity)
            for (a, b), link in sc.network.links.items()
        },
        "receivers": [
            (str(h.receiver_id), str(h.node), h.session_id, h.receiver.level)
            for h in sc.receivers
        ],
        "sessions": {
            sid: (str(d.source), len(d.groups), d.schedule.n_layers)
            for sid, d in sc.sessions.items()
        },
    }


def _tier_link_bandwidths(sc, tiers):
    """Tier name -> bandwidths of the downward links into that tier
    (parent strictly in the tier above; reverse directions and host LANs
    excluded)."""
    prefixes = [t.name for t in tiers]

    def tier_of(name):
        name = str(name)
        if name == "src":
            return "src"
        for p in sorted(prefixes, key=len, reverse=True):
            if name.startswith(p) and name[len(p):].isdigit():
                return p
        return None

    parent_of = {prefixes[0]: "src"}
    for above, below in zip(prefixes, prefixes[1:]):
        parent_of[below] = above

    out = {p: [] for p in prefixes}
    for (a, b), link in sc.network.links.items():
        tier = tier_of(b)
        if tier in out and tier_of(a) == parent_of[tier]:
            out[tier].append(link.bandwidth)
    return out


def test_structure_tiers_present():
    sc = build_tiered_topology(seed=1)
    names = set(map(str, sc.network.nodes))
    assert any(n.startswith("regional") for n in names)
    assert any(n.startswith("local") for n in names)
    assert any(n.startswith("institutional") for n in names)
    assert any(n.startswith("h") for n in names)
    assert sc.receivers


def test_deterministic_for_seed():
    a = build_tiered_topology(seed=5)
    b = build_tiered_topology(seed=5)
    assert set(a.network.nodes) == set(b.network.nodes)
    assert {
        k: l.bandwidth for k, l in a.network.links.items()
    } == {k: l.bandwidth for k, l in b.network.links.items()}


@pytest.mark.parametrize("seed", [0, 3, 11, 42])
def test_full_fingerprint_deterministic(seed):
    """Same seed reproduces the *entire* topology: every link's bandwidth,
    delay and queue capacity, receiver placement with initial levels, and
    session wiring — not just the node set."""
    a = _topology_fingerprint(build_tiered_topology(seed=seed))
    b = _topology_fingerprint(build_tiered_topology(seed=seed))
    assert a == b


@pytest.mark.parametrize("seed", [0, 3, 11, 42])
def test_bandwidth_gradient_every_tier_pair(seed):
    """The paper's capacity gradient holds tier-by-tier: every downward
    link into tier t is strictly faster than every link into tier t+1."""
    sc = build_tiered_topology(seed=seed)
    by_tier = _tier_link_bandwidths(sc, DEFAULT_TIERS)
    for upper, lower in zip(DEFAULT_TIERS, DEFAULT_TIERS[1:]):
        ups = by_tier[upper.name]
        downs = by_tier[lower.name]
        assert ups and downs, (upper.name, lower.name)
        assert min(ups) > max(downs), (upper.name, lower.name, min(ups), max(downs))
        # and each tier draws only from its configured range
        assert all(upper.bandwidth[0] <= bw <= upper.bandwidth[1] for bw in ups)
        assert all(lower.bandwidth[0] <= bw <= lower.bandwidth[1] for bw in downs)


def test_different_seeds_differ():
    a = build_tiered_topology(seed=1)
    b = build_tiered_topology(seed=2)
    assert set(a.network.nodes) != set(b.network.nodes) or {
        k: l.bandwidth for k, l in a.network.links.items()
    } != {k: l.bandwidth for k, l in b.network.links.items()}


def test_bandwidth_gradient_last_mile_is_bottleneck():
    """Institutional access links are slower than regional ones."""
    sc = build_tiered_topology(seed=3)
    regional = [
        l.bandwidth for (a, b), l in sc.network.links.items()
        if str(a) == "src" and str(b).startswith("regional")
    ]
    institutional = [
        l.bandwidth for (a, b), l in sc.network.links.items()
        if str(a).startswith("local") and str(b).startswith("institutional")
    ]
    assert min(regional) > max(institutional)


def test_max_receivers_cap():
    sc = build_tiered_topology(seed=1, max_receivers=3)
    assert len(sc.receivers) <= 3


def test_receiver_fraction_validation():
    with pytest.raises(ValueError):
        build_tiered_topology(receiver_fraction=0.0)


def test_custom_tiers():
    tiers = (
        TierSpec("mid", fanout=(2, 2), bandwidth=(1e6, 1e6)),
        TierSpec("edge", fanout=(2, 2), bandwidth=(100e3, 100e3)),
    )
    sc = build_tiered_topology(seed=1, tiers=tiers)
    edges = [n for n in map(str, sc.network.nodes) if n.startswith("edge")]
    assert len(edges) == 4  # 2 mids x fanout 2


def test_toposense_tracks_oracle_on_random_tiered_topology():
    """End-to-end: on a random hierarchy, receivers move toward the oracle
    levels their last-mile links dictate."""
    sc = build_tiered_topology(seed=7, max_receivers=6, traffic="cbr")
    res = sc.run(240.0)
    optimal = res.optimal_levels()
    assert len(set(optimal.values())) >= 2  # heterogeneous optima
    dev = res.mean_deviation(80.0)
    assert dev < 0.6, dev
    # No receiver is catastrophically off (at base while optimum is high).
    for h in sc.receivers:
        opt = optimal[(h.session_id, h.receiver_id)]
        mean = h.trace.time_weighted_mean(80.0, res.end_time)
        assert mean >= 0.3 * opt, (h.receiver_id, mean, opt)
