"""Bloom-filter path tags (Section 5, "Bloom filter").

Each switch ORs ``BF(input_port || switch_ID || output_port)`` into the
packet's tag.  Following the paper we use Kirsch-Mitzenmacher double hashing
[38] on top of a single 32-bit Murmur3 hash [12]:

* ``h1`` and ``h2`` are the two 16-bit halves of ``murmur3_32(hop_bytes)``,
* ``g_i(x) = h1(x) + i * h2(x)`` for ``i = 0, 1, ..., k-1`` (k = 3),
* each ``g_i`` selects one bit of the ``m``-bit filter.

``m`` defaults to 16 bits (the width the paper carries in a VLAN TCI) and is
swept from 8 to 64 in the Figure 12 experiment.

The module also implements the *hash-based XOR tagging* the authors
considered and rejected (Section 3.3): it detects deviations equally well
but destroys the per-hop membership information fault localization needs.
It is retained here for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..netmodel.hops import Hop

__all__ = [
    "murmur3_32",
    "BloomTagScheme",
    "XorTagScheme",
    "DEFAULT_TAG_BITS",
    "DEFAULT_NUM_HASHES",
]

DEFAULT_TAG_BITS = 16
DEFAULT_NUM_HASHES = 3

_MASK32 = 0xFFFFFFFF


def _rotl32(value: int, shift: int) -> int:
    value &= _MASK32
    return ((value << shift) | (value >> (32 - shift))) & _MASK32


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """MurmurHash3 x86 32-bit, implemented from scratch.

    Matches the reference implementation (verified against published test
    vectors in the unit tests).
    """
    c1 = 0xCC9E2D51
    c2 = 0x1B873593
    h = seed & _MASK32
    length = len(data)
    rounded = length - (length % 4)

    for offset in range(0, rounded, 4):
        k = int.from_bytes(data[offset : offset + 4], "little")
        k = (k * c1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * c2) & _MASK32
        h ^= k
        h = _rotl32(h, 13)
        h = (h * 5 + 0xE6546B64) & _MASK32

    tail = data[rounded:]
    k = 0
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * c1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * c2) & _MASK32
        h ^= k

    h ^= length
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


@dataclass(frozen=True)
class BloomTagScheme:
    """The paper's tagging scheme: a per-hop Bloom filter OR-ed into the tag.

    Instances are immutable and cheap; the hop->bitmask mapping is memoised
    per scheme in a module-level cache keyed by ``(bits, hashes)``.
    """

    bits: int = DEFAULT_TAG_BITS
    hashes: int = DEFAULT_NUM_HASHES

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError(f"tag width must be positive, got {self.bits}")
        if self.hashes <= 0:
            raise ValueError(f"hash count must be positive, got {self.hashes}")

    @property
    def empty_tag(self) -> int:
        """The tag a packet carries when it enters the network (all zeros)."""
        return 0

    @property
    def tag_mask(self) -> int:
        """Bitmask of valid tag bits."""
        return (1 << self.bits) - 1

    def hop_filter(self, hop: Hop) -> int:
        """``BF(x || s || y)``: the k-bit-set Bloom filter of a single hop."""
        cache = _hop_filter_cache.setdefault((self.bits, self.hashes), {})
        cached = cache.get(hop)
        if cached is not None:
            return cached
        digest = murmur3_32(hop.key_bytes())
        h1 = digest & 0xFFFF
        h2 = digest >> 16
        mask = 0
        for i in range(self.hashes):
            mask |= 1 << ((h1 + i * h2) % self.bits)
        cache[hop] = mask
        return mask

    def add(self, tag: int, hop: Hop) -> int:
        """Algorithm 1 line 4: ``tag <- tag ⊔ BF(x||s||y)``."""
        return tag | self.hop_filter(hop)

    def tag_of_path(self, hops: Iterable[Hop]) -> int:
        """The tag a packet correctly following ``hops`` would carry."""
        tag = 0
        for hop in hops:
            tag |= self.hop_filter(hop)
        return tag

    def may_contain(self, tag: int, hop: Hop) -> bool:
        """Bloom membership test ``BF(hop) ⊓ tag == BF(hop)``.

        False means the hop is definitely *not* in the path the tag encodes;
        True means it probably is (one-sided error — this is what drives
        both Algorithm 4 and its false positives).
        """
        hop_filter = self.hop_filter(hop)
        return (hop_filter & tag) == hop_filter

    def false_positive_probability(self, path_length: int) -> float:
        """Analytic single-hop false-positive estimate for an n-hop tag.

        Standard Bloom bound: ``(1 - (1 - 1/m)^{k n})^k``.  Used to sanity-
        check the measured Figure 12 curves.
        """
        if path_length <= 0:
            return 0.0
        fill = 1.0 - (1.0 - 1.0 / self.bits) ** (self.hashes * path_length)
        return fill**self.hashes


_hop_filter_cache: Dict[Tuple[int, int], Dict[Hop, int]] = {}


@dataclass(frozen=True)
class XorTagScheme:
    """The rejected hash-XOR tagging design (Section 3.3 discussion).

    ``tag <- tag XOR hash(hop)`` verifies full-path equality just as well as
    the Bloom scheme, but a partially-built tag carries no usable membership
    information, so :meth:`may_contain` cannot be implemented — the property
    the paper exploits for localization is structurally absent.  Kept for
    the ablation benchmark comparing detection vs localization power.
    """

    bits: int = DEFAULT_TAG_BITS

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError(f"tag width must be positive, got {self.bits}")

    @property
    def empty_tag(self) -> int:
        """Initial tag value."""
        return 0

    @property
    def tag_mask(self) -> int:
        """Bitmask of valid tag bits."""
        return (1 << self.bits) - 1

    def hop_value(self, hop: Hop) -> int:
        """The per-hop hash folded to the tag width."""
        digest = murmur3_32(hop.key_bytes())
        value = 0
        remaining = digest
        while remaining:
            value ^= remaining & self.tag_mask
            remaining >>= self.bits
        return value or 1  # never contribute a zero (would be invisible)

    def add(self, tag: int, hop: Hop) -> int:
        """XOR-accumulate one hop."""
        return tag ^ self.hop_value(hop)

    def tag_of_path(self, hops: Iterable[Hop]) -> int:
        """Expected tag for a full path."""
        tag = 0
        for hop in hops:
            tag ^= self.hop_value(hop)
        return tag
