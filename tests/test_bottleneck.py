"""Unit tests for stage 3: bottleneck bandwidths."""

import math


from repro.core.bottleneck import compute_bottlenecks, compute_handleable
from repro.core.session_topology import SessionTree


def tree():
    return SessionTree("s", 1, [(1, 2), (2, 3), (2, 4), (1, 5), (5, 6)],
                       [3, 4, 6])


def caps(mapping):
    return lambda e: mapping.get(e, math.inf)


def test_bottleneck_is_min_along_path():
    c = caps({(1, 2): 1e6, (2, 3): 128e3, (2, 4): 512e3})
    b = compute_bottlenecks(tree(), c)
    assert b[1] == math.inf
    assert b[2] == 1e6
    assert b[3] == 128e3
    assert b[4] == 512e3
    assert b[6] == math.inf  # no estimates on that branch


def test_upstream_constraint_dominates():
    c = caps({(1, 2): 100e3, (2, 3): 500e3})
    b = compute_bottlenecks(tree(), c)
    assert b[3] == 100e3


def test_all_infinite():
    b = compute_bottlenecks(tree(), caps({}))
    assert all(v == math.inf for v in b.values())


def test_handleable_is_max_over_subtree():
    c = caps({(1, 2): 1e6, (2, 3): 128e3, (2, 4): 512e3, (1, 5): 64e3})
    b = compute_bottlenecks(tree(), c)
    h = compute_handleable(tree(), b)
    assert h[3] == 128e3
    assert h[4] == 512e3
    assert h[2] == 512e3  # best receiver below node 2
    assert h[5] == 64e3
    assert h[1] == max(512e3, 64e3)


def test_handleable_leaf_equals_own_bottleneck():
    c = caps({(1, 2): 300e3})
    t = SessionTree("s", 1, [(1, 2)], [2])
    b = compute_bottlenecks(t, c)
    h = compute_handleable(t, b)
    assert h[2] == b[2] == 300e3


def test_single_node_tree():
    t = SessionTree("s", 1, [], [1])
    b = compute_bottlenecks(t, caps({}))
    h = compute_handleable(t, b)
    assert b[1] == math.inf and h[1] == math.inf
