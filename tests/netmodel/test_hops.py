"""Unit tests for hop and path helpers."""

from repro.netmodel.hops import Hop
from repro.netmodel.rules import DROP_PORT


class TestHop:
    def test_ordering_and_hashing(self):
        a, b = Hop(1, "S1", 2), Hop(1, "S2", 2)
        assert a < b
        assert len({a, b, Hop(1, "S1", 2)}) == 2

    def test_str_renders_drop_symbol(self):
        assert str(Hop(3, "S9", DROP_PORT)) == "<3|S9|⊥>"

    def test_key_bytes_deterministic(self):
        assert Hop(1, "S", 2).key_bytes() == Hop(1, "S", 2).key_bytes()

    def test_key_bytes_distinguishes_ports(self):
        assert Hop(1, "S", 2).key_bytes() != Hop(2, "S", 1).key_bytes()

    def test_key_bytes_handles_drop_port(self):
        assert Hop(1, "S", DROP_PORT).key_bytes() != Hop(1, "S", 63).key_bytes()

