"""Unit tests for Packet construction and addressing rules."""

import pytest

from repro.simnet.packet import CONTROL, DATA, DEFAULT_PACKET_SIZE, Packet


class TestPacket:
    def test_unicast_construction(self):
        p = Packet(src="a", dst="b", port="app")
        assert p.group is None
        assert p.size == DEFAULT_PACKET_SIZE == 1000
        assert p.kind == DATA

    def test_multicast_construction(self):
        p = Packet(src="a", group=7, seq=3)
        assert p.dst is None
        assert p.group == 7
        assert p.seq == 3

    def test_must_have_exactly_one_address(self):
        with pytest.raises(ValueError):
            Packet(src="a")  # neither
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", group=1)  # both

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", size=0)
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", size=-5)

    def test_control_kind(self):
        p = Packet(src="a", dst="b", kind=CONTROL, payload={"x": 1})
        assert p.kind == CONTROL
        assert p.payload == {"x": 1}

    def test_repr_mentions_addressing(self):
        assert "g7" in repr(Packet(src="a", group=7))
        assert "->b" in repr(Packet(src="a", dst="b"))

    def test_slots_prevent_arbitrary_attributes(self):
        p = Packet(src="a", dst="b")
        with pytest.raises(AttributeError):
            p.extra = 1

