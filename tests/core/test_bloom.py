"""Unit tests for Murmur3 and the tag schemes."""

import pytest

from repro.core.bloom import BloomTagScheme, XorTagScheme, murmur3_32
from repro.netmodel.hops import Hop


class TestMurmur3:
    """Published MurmurHash3 x86/32 test vectors."""

    @pytest.mark.parametrize(
        "data,seed,expected",
        [
            (b"", 0, 0x00000000),
            (b"", 1, 0x514E28B7),
            (b"", 0xFFFFFFFF, 0x81F16F39),
            (b"\x00\x00\x00\x00", 0, 0x2362F9DE),
            (b"a", 0, 0x3C2569B2),
            (b"abc", 0, 0xB3DD93FA),
            (b"Hello, world!", 0x9747B28C, 0x24884CBA),
            (b"The quick brown fox jumps over the lazy dog", 0x9747B28C, 0x2FA826CD),
        ],
    )
    def test_vectors(self, data, seed, expected):
        assert murmur3_32(data, seed) == expected

    def test_deterministic(self):
        assert murmur3_32(b"veridp") == murmur3_32(b"veridp")

    def test_output_is_32_bit(self):
        for data in [b"", b"x", b"xy", b"xyz", b"wxyz", b"vwxyz"]:
            assert 0 <= murmur3_32(data) < (1 << 32)


@pytest.fixture
def scheme():
    return BloomTagScheme(bits=16, hashes=3)


HOP_A = Hop(1, "S1", 3)
HOP_B = Hop(1, "S2", 3)
HOP_C = Hop(3, "S2", 2)


class TestBloomTagScheme:
    def test_empty_tag_is_zero(self, scheme):
        assert scheme.empty_tag == 0

    def test_hop_filter_within_width(self, scheme):
        assert 0 < scheme.hop_filter(HOP_A) <= scheme.tag_mask

    def test_hop_filter_at_most_k_bits(self, scheme):
        assert bin(scheme.hop_filter(HOP_A)).count("1") <= 3

    def test_add_is_or(self, scheme):
        tag = scheme.add(scheme.empty_tag, HOP_A)
        assert tag == scheme.hop_filter(HOP_A)
        tag2 = scheme.add(tag, HOP_B)
        assert tag2 == scheme.hop_filter(HOP_A) | scheme.hop_filter(HOP_B)

    def test_add_idempotent(self, scheme):
        tag = scheme.add(scheme.empty_tag, HOP_A)
        assert scheme.add(tag, HOP_A) == tag

    def test_tag_of_path_order_independent(self, scheme):
        hops = [HOP_A, HOP_B, HOP_C]
        assert scheme.tag_of_path(hops) == scheme.tag_of_path(list(reversed(hops)))

    def test_may_contain_no_false_negatives(self, scheme):
        tag = scheme.tag_of_path([HOP_A, HOP_B, HOP_C])
        for hop in (HOP_A, HOP_B, HOP_C):
            assert scheme.may_contain(tag, hop)

    def test_may_contain_rejects_on_empty_tag(self, scheme):
        assert not scheme.may_contain(scheme.empty_tag, HOP_A)

    def test_distinct_hops_usually_differ(self, scheme):
        filters = {scheme.hop_filter(Hop(i, f"S{i}", i + 1)) for i in range(1, 30)}
        # With 16 bits / 3 hashes, near-all of 29 random hops are distinct.
        assert len(filters) > 25

    def test_different_widths_give_different_filters(self):
        narrow = BloomTagScheme(bits=8)
        wide = BloomTagScheme(bits=64)
        assert narrow.hop_filter(HOP_A) <= 0xFF
        assert wide.hop_filter(HOP_A) != narrow.hop_filter(HOP_A)

    def test_false_positive_probability_monotone_in_path_length(self, scheme):
        probs = [scheme.false_positive_probability(n) for n in range(0, 10)]
        assert probs[0] == 0.0
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_fp_probability_decreases_with_width(self):
        narrow = BloomTagScheme(bits=8)
        wide = BloomTagScheme(bits=64)
        assert wide.false_positive_probability(5) < narrow.false_positive_probability(5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BloomTagScheme(bits=0)
        with pytest.raises(ValueError):
            BloomTagScheme(bits=16, hashes=0)

    def test_hop_key_bytes_injective_on_tricky_cases(self):
        # Switch names that would collide under naive concatenation.
        a = Hop(1, "S12", 3)
        b = Hop(1, "S1", 23)  # "1"+"S12"+"3" vs "1"+"S1"+"23" ambiguity
        assert a.key_bytes() != b.key_bytes()


class TestXorTagScheme:
    def test_add_is_xor(self):
        scheme = XorTagScheme(bits=16)
        tag = scheme.add(0, HOP_A)
        assert scheme.add(tag, HOP_A) == 0  # XOR cancels

    def test_tag_of_path_matches_adds(self):
        scheme = XorTagScheme(bits=16)
        tag = 0
        for hop in (HOP_A, HOP_B, HOP_C):
            tag = scheme.add(tag, hop)
        assert tag == scheme.tag_of_path([HOP_A, HOP_B, HOP_C])

    def test_hop_value_never_zero(self):
        scheme = XorTagScheme(bits=16)
        for i in range(1, 50):
            assert scheme.hop_value(Hop(i, f"S{i}", i + 1)) != 0

    def test_no_membership_api(self):
        scheme = XorTagScheme()
        assert not hasattr(scheme, "may_contain")

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            XorTagScheme(bits=0)
