"""Unit tests for SessionTree."""

import pytest

from repro.core.session_topology import SessionTree


def paper_tree():
    r"""The tree from the paper's Fig. 1:

            1 (source)
           / \
          2   5
         / \   \
        3   4   6
    """
    edges = [(1, 2), (2, 3), (2, 4), (1, 5), (5, 6)]
    return SessionTree("s", 1, edges, [3, 4, 6])


def test_parent_child_maps():
    t = paper_tree()
    assert t.parent[3] == 2
    assert t.parent[2] == 1
    assert 1 not in t.parent
    assert set(t.children[1]) == {2, 5}
    assert set(t.children[2]) == {3, 4}


def test_topdown_parents_first():
    t = paper_tree()
    order = t.topdown()
    pos = {n: i for i, n in enumerate(order)}
    for child, parent in t.parent.items():
        assert pos[parent] < pos[child]


def test_bottomup_children_first():
    t = paper_tree()
    order = t.bottomup()
    pos = {n: i for i, n in enumerate(order)}
    for child, parent in t.parent.items():
        assert pos[child] < pos[parent]


def test_leaves():
    t = paper_tree()
    assert {n for n in t.nodes if t.is_leaf(n)} == {3, 4, 6}
    assert t.is_leaf(3)
    assert not t.is_leaf(2)


def test_incoming_edge():
    t = paper_tree()
    assert t.incoming_edge(3) == (2, 3)
    assert t.incoming_edge(1) is None


def test_path_from_root():
    t = paper_tree()
    assert t.path_from_root(3) == [1, 2, 3]
    assert t.path_from_root(1) == [1]
    assert t.path_from_root(6) == [1, 5, 6]


def test_two_parents_rejected():
    with pytest.raises(ValueError, match="two parents"):
        SessionTree("s", 1, [(1, 2), (1, 3), (3, 2)], [])


def test_root_with_parent_rejected():
    with pytest.raises(ValueError, match="root cannot have a parent"):
        SessionTree("s", 1, [(2, 1)], [])


def test_disconnected_rejected():
    with pytest.raises(ValueError, match="not reachable"):
        SessionTree("s", 1, [(1, 2), (3, 4)], [])


def test_receiver_on_unknown_node_rejected():
    with pytest.raises(ValueError, match="unknown nodes"):
        SessionTree("s", 1, [(1, 2)], [99])


def test_single_node_tree():
    t = SessionTree("s", 1, [], [1])
    assert t.is_leaf(1) and t.nodes == (1,)
    assert t.topdown() == (1,)
    assert t.is_leaf(1)


def test_receiver_on_internal_node_allowed():
    # A receiver can sit at an interior router (host co-located).
    t = SessionTree("s", 1, [(1, 2), (2, 3)], [2, 3])
    assert t.leaves == (2, 3)


def test_from_layer_snapshots_overlay():
    # Layer 1 reaches both subtrees, layer 2 only node 4.
    l1 = [(1, 2), (2, 3), (2, 4)]
    l2 = [(1, 2), (2, 4)]
    t = SessionTree.from_layer_snapshots("s", 1, [l1, l2], [3, 4])
    assert t.edges == frozenset(l1)


def test_children_order_deterministic():
    t1 = SessionTree("s", 1, [(1, 3), (1, 2)], [])
    t2 = SessionTree("s", 1, [(1, 2), (1, 3)], [])
    assert t1.children[1] == t2.children[1]
