"""Unit tests for the persistent controller state."""

from repro.core.state import ControllerState, NodeState


class TestNodeState:
    def test_history_bits_empty_history(self):
        ns = NodeState()
        assert ns.history_bits(False) == 0
        assert ns.history_bits(True) == 1

    def test_history_bits_after_pushes(self):
        ns = NodeState()
        ns.push_congestion(True)   # becomes T1 next interval
        assert ns.history_bits(True) == 0b011
        ns.push_congestion(False)
        # window is now [True, False] = T0, T1
        assert ns.history_bits(True) == 0b101
        assert ns.history_bits(False) == 0b100

    def test_history_window_bounded(self):
        ns = NodeState()
        for state in (True, True, True, False, False):
            ns.push_congestion(state)
        assert ns.cong_hist == [False, False]
        assert ns.history_bits(True) == 0b001

    def test_bytes_history(self):
        ns = NodeState()
        assert ns.prev_bytes is None
        ns.push_bytes(100.0)
        assert ns.prev_bytes == 100.0
        ns.push_bytes(250.0)
        assert ns.prev_bytes == 250.0
        assert len(ns.bytes_hist) == 1

    def test_supply_history(self):
        ns = NodeState()
        assert ns.supply_old is None
        assert ns.supply_recent is None
        ns.push_supply(100.0)
        assert ns.supply_old is None  # need two entries for "old"
        assert ns.supply_recent == 100.0
        ns.push_supply(200.0)
        assert ns.supply_old == 100.0
        assert ns.supply_recent == 200.0
        ns.push_supply(300.0)
        assert ns.supply_old == 200.0
        assert ns.supply_recent == 300.0


class TestControllerState:
    def test_node_created_on_demand_and_cached(self):
        st = ControllerState()
        a = st.node("s1", "n1")
        assert st.node("s1", "n1") is a
        assert st.node("s1", "n2") is not a
        assert st.node("s2", "n1") is not a

    def test_backoff_blocks_layer_in_window(self):
        st = ControllerState()
        st.set_backoff("s", "n", 4, expiry=100.0)
        assert st.is_backed_off("s", ["n"], 4, now=50.0)
        assert not st.is_backed_off("s", ["n"], 4, now=100.0)
        assert not st.is_backed_off("s", ["n"], 3, now=50.0)
        assert not st.is_backed_off("s", ["other"], 4, now=50.0)
        assert not st.is_backed_off("other", ["n"], 4, now=50.0)

    def test_backoff_checked_along_path(self):
        st = ControllerState()
        st.set_backoff("s", "mid", 5, expiry=100.0)
        # A leaf whose root-path includes "mid" is blocked.
        assert st.is_backed_off("s", ["root", "mid", "leaf"], 5, now=10.0)
        assert not st.is_backed_off("s", ["root", "leaf2"], 5, now=10.0)

    def test_backoff_never_shortens(self):
        st = ControllerState()
        st.set_backoff("s", "n", 4, expiry=100.0)
        st.set_backoff("s", "n", 4, expiry=50.0)
        assert st.is_backed_off("s", ["n"], 4, now=75.0)

    def test_backoff_extends(self):
        st = ControllerState()
        st.set_backoff("s", "n", 4, expiry=50.0)
        st.set_backoff("s", "n", 4, expiry=100.0)
        assert st.is_backed_off("s", ["n"], 4, now=75.0)

    def test_prune_removes_expired_only(self):
        st = ControllerState()
        st.set_backoff("s", "a", 1, expiry=10.0)
        st.set_backoff("s", "b", 1, expiry=100.0)
        st.prune_backoffs(now=50.0)
        assert not st.is_backed_off("s", ["a"], 1, now=5.0)
        assert st.is_backed_off("s", ["b"], 1, now=50.0)
