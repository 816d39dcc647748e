"""Unit tests for header-space predicates."""

import pytest

from repro.bdd.engine import FALSE, TRUE
from repro.bdd.headerspace import (
    HeaderField,
    HeaderLayout,
    HeaderSpace,
    format_ipv4,
    parse_ipv4,
    parse_prefix,
    range_to_prefixes,
)


@pytest.fixture
def hs():
    return HeaderSpace()


def make_header(**overrides):
    header = {"src_ip": 0, "dst_ip": 0, "proto": 6, "src_port": 1234, "dst_port": 80}
    header.update(overrides)
    return header


class TestLayout:
    def test_default_total_bits(self):
        assert HeaderLayout().total_bits == 104

    def test_offsets_are_contiguous(self):
        layout = HeaderLayout()
        assert layout.offset("src_ip") == 0
        assert layout.offset("dst_ip") == 32
        assert layout.offset("proto") == 64
        assert layout.offset("src_port") == 72
        assert layout.offset("dst_port") == 88

    def test_unknown_field_raises(self):
        layout = HeaderLayout()
        with pytest.raises(KeyError):
            layout.field("ttl")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            HeaderLayout([HeaderField("a", 4), HeaderField("a", 4)])

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            HeaderLayout([])

    def test_zero_width_field_rejected(self):
        with pytest.raises(ValueError):
            HeaderField("z", 0)


class TestExact:
    def test_exact_contains_only_value(self, hs):
        pred = hs.exact("dst_port", 80)
        assert hs.contains(pred, make_header(dst_port=80))
        assert not hs.contains(pred, make_header(dst_port=81))

    def test_exact_count(self, hs):
        pred = hs.exact("proto", 6)
        # all other fields free: 2^(104-8)
        assert hs.count_headers(pred) == 1 << 96

    def test_exact_cached(self, hs):
        assert hs.exact("dst_port", 22) == hs.exact("dst_port", 22)

    def test_out_of_range_value(self, hs):
        with pytest.raises(ValueError):
            hs.exact("proto", 256)


class TestPrefix:
    def test_prefix_match(self, hs):
        net = parse_ipv4("10.0.1.0")
        pred = hs.prefix("dst_ip", net, 24)
        assert hs.contains(pred, make_header(dst_ip=parse_ipv4("10.0.1.99")))
        assert not hs.contains(pred, make_header(dst_ip=parse_ipv4("10.0.2.99")))

    def test_zero_length_prefix_is_all(self, hs):
        assert hs.prefix("dst_ip", 0, 0) == TRUE

    def test_full_length_prefix_is_exact(self, hs):
        addr = parse_ipv4("192.168.0.1")
        assert hs.prefix("dst_ip", addr, 32) == hs.exact("dst_ip", addr)

    def test_longer_prefix_subset_of_shorter(self, hs):
        net = parse_ipv4("10.0.0.0")
        p8 = hs.prefix("dst_ip", net, 8)
        p16 = hs.prefix("dst_ip", net, 16)
        assert hs.bdd.implies(p16, p8)

    def test_bad_plen(self, hs):
        with pytest.raises(ValueError):
            hs.prefix("dst_ip", 0, 33)


class TestRange:
    def test_range_inclusive(self, hs):
        pred = hs.range_("dst_port", 1000, 2000)
        assert hs.contains(pred, make_header(dst_port=1000))
        assert hs.contains(pred, make_header(dst_port=2000))
        assert hs.contains(pred, make_header(dst_port=1500))
        assert not hs.contains(pred, make_header(dst_port=999))
        assert not hs.contains(pred, make_header(dst_port=2001))

    def test_range_count(self, hs):
        pred = hs.range_("dst_port", 10, 30)
        assert hs.count_headers(pred) == 21 << (104 - 16)

    def test_degenerate_range_is_exact(self, hs):
        assert hs.range_("dst_port", 443, 443) == hs.exact("dst_port", 443)

    def test_empty_range(self, hs):
        assert hs.range_("dst_port", 5, 4) == FALSE

    def test_full_range_is_true(self, hs):
        assert hs.range_("dst_port", 0, 65535) == TRUE


class TestNotEqualAndMember:
    def test_not_equal(self, hs):
        pred = hs.not_equal("dst_port", 22)
        assert not hs.contains(pred, make_header(dst_port=22))
        assert hs.contains(pred, make_header(dst_port=23))

    def test_member(self, hs):
        pred = hs.member("proto", [6, 17])
        assert hs.contains(pred, make_header(proto=6))
        assert hs.contains(pred, make_header(proto=17))
        assert not hs.contains(pred, make_header(proto=1))

    def test_member_empty_is_false(self, hs):
        assert hs.member("proto", []) == FALSE


class TestHeaderBDD:
    def test_header_bdd_is_singleton(self, hs):
        header = make_header(src_ip=parse_ipv4("10.0.0.1"))
        pred = hs.header_bdd(header)
        assert hs.count_headers(pred) == 1
        assert hs.contains(pred, header)

    def test_header_bdd_missing_field(self, hs):
        with pytest.raises(KeyError):
            hs.header_bdd({"src_ip": 1})

    def test_contains_consistent_with_intersection(self, hs):
        pred = hs.prefix("dst_ip", parse_ipv4("10.1.0.0"), 16)
        header = make_header(dst_ip=parse_ipv4("10.1.2.3"))
        via_walk = hs.contains(pred, header)
        via_bdd = hs.bdd.and_(pred, hs.header_bdd(header)) != FALSE
        assert via_walk == via_bdd is True


class TestSampling:
    def test_sample_member(self, hs):
        pred = hs.bdd.and_(
            hs.prefix("dst_ip", parse_ipv4("172.16.0.0"), 12),
            hs.exact("dst_port", 443),
        )
        header = hs.sample_header(pred)
        assert header is not None
        assert hs.contains(pred, header)
        assert header["dst_port"] == 443

    def test_sample_of_empty_is_none(self, hs):
        assert hs.sample_header(FALSE) is None


class TestRangeToPrefixes:
    def test_cover_exact(self):
        width = 8
        for lo, hi in [(0, 255), (1, 254), (7, 9), (128, 128), (0, 0), (100, 200)]:
            covered = set()
            for value, plen in range_to_prefixes(lo, hi, width):
                size = 1 << (width - plen)
                block = range(value, value + size)
                assert covered.isdisjoint(block)
                covered.update(block)
            assert covered == set(range(lo, hi + 1))

    def test_bound_on_count(self):
        prefixes = range_to_prefixes(1, 2**16 - 2, 16)
        assert len(prefixes) <= 2 * 16 - 2

    def test_bad_range_raises(self):
        with pytest.raises(ValueError):
            range_to_prefixes(5, 300, 8)


class TestAddressParsing:
    def test_parse_ipv4(self):
        assert parse_ipv4("10.0.0.1") == 0x0A000001
        assert parse_ipv4("255.255.255.255") == 0xFFFFFFFF

    def test_parse_ipv4_rejects_bad(self):
        for bad in ["10.0.0", "1.2.3.4.5", "300.0.0.1", "a.b.c.d"]:
            with pytest.raises(ValueError):
                parse_ipv4(bad)

    def test_parse_prefix(self):
        assert parse_prefix("10.0.1.0/24") == (0x0A000100, 24)
        assert parse_prefix("10.0.1.1") == (0x0A000101, 32)

    def test_parse_prefix_masks_host_bits(self):
        value, plen = parse_prefix("10.0.1.77/24")
        assert value == 0x0A000100
        assert plen == 24

    def test_parse_prefix_zero(self):
        assert parse_prefix("1.2.3.4/0") == (0, 0)

    def test_format_round_trip(self):
        for text in ["0.0.0.0", "10.1.2.3", "255.255.255.255"]:
            assert format_ipv4(parse_ipv4(text)) == text

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ipv4(1 << 32)
