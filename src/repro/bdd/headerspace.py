"""Packet header sets as BDD predicates.

VeriDP's path table stores, for every path, the *set of headers* allowed to
follow that path.  Wildcard-expression encodings blow up on negated matches
(the paper notes ``dst_port != 22`` alone needs 16 wildcard unions, and the
Stanford network would need ~652 million expressions), so header sets are
Boolean functions over the header bits, stored as BDDs.

This module fixes a bit layout for the classic 5-tuple and provides the
predicate constructors the rest of the system uses:

* exact-match on a field,
* IP-prefix match,
* integer range match (for port ranges),
* ternary wildcard strings (``"10xx...x"``),
* conversion of a concrete packet header into its singleton BDD.

Field bits are allocated MSB-first in field declaration order, so prefix
matches are single cubes (cheap and small).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .engine import BDD, FALSE, TRUE

__all__ = [
    "HeaderField",
    "HeaderLayout",
    "HeaderSpace",
    "DEFAULT_FIELDS",
    "parse_ipv4",
    "parse_prefix",
    "format_ipv4",
    "range_to_prefixes",
]


@dataclass(frozen=True)
class HeaderField:
    """A named fixed-width bit field in the packet header."""

    name: str
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"field {self.name!r} must have positive width")
        if not self.name:
            raise ValueError("field name must be non-empty")

    @property
    def max_value(self) -> int:
        """Largest representable value of this field."""
        return (1 << self.width) - 1


#: The TCP/IP 5-tuple used throughout the paper's examples (104 bits total).
DEFAULT_FIELDS: Tuple[HeaderField, ...] = (
    HeaderField("src_ip", 32),
    HeaderField("dst_ip", 32),
    HeaderField("proto", 8),
    HeaderField("src_port", 16),
    HeaderField("dst_port", 16),
)


class HeaderLayout:
    """An ordered collection of header fields mapped to BDD variable levels.

    The first declared field owns the root-most BDD levels.  Within a field,
    the most significant bit gets the smallest level, so an IP prefix is a
    contiguous run of top levels — one cube, ``plen`` BDD nodes.
    """

    def __init__(self, fields: Sequence[HeaderField] = DEFAULT_FIELDS) -> None:
        if not fields:
            raise ValueError("layout needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in layout: {names}")
        self.fields: Tuple[HeaderField, ...] = tuple(fields)
        self._offset: Dict[str, int] = {}
        self._by_name: Dict[str, HeaderField] = {}
        offset = 0
        for field in self.fields:
            self._offset[field.name] = offset
            self._by_name[field.name] = field
            offset += field.width
        self.total_bits = offset

    def field(self, name: str) -> HeaderField:
        """Look up a field by name, raising ``KeyError`` with context."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown header field {name!r}; layout has {list(self._by_name)}"
            ) from None

    def offset(self, name: str) -> int:
        """BDD level of the MSB of field ``name``."""
        self.field(name)
        return self._offset[name]


class HeaderSpace:
    """Factory for header-set BDDs over a fixed :class:`HeaderLayout`.

    One ``HeaderSpace`` (and hence one BDD manager) is shared by everything
    that must compare header sets — the path table, the verifier and the
    incremental updater all receive the same instance.
    """

    def __init__(self, layout: Optional[HeaderLayout] = None) -> None:
        self.layout = layout or HeaderLayout()
        self.bdd = BDD(self.layout.total_bits)
        self._exact_cache: Dict[Tuple[str, int], int] = {}
        #: Memo of :meth:`repro.netmodel.rules.Match.to_bdd`: match -> header
        #: set.  Node ids never die, so an entry stays valid for the life of
        #: the manager; rules of many switches share their matches.
        self.match_bdds: Dict[object, int] = {}

    # -- constants -----------------------------------------------------

    @property
    def all_match(self) -> int:
        """The universe: every possible header (a BDD of True)."""
        return TRUE

    @property
    def empty(self) -> int:
        """The empty header set (a BDD of False)."""
        return FALSE

    # -- predicate constructors ----------------------------------------

    def exact(self, field_name: str, value: int) -> int:
        """Headers whose ``field_name`` equals ``value`` exactly."""
        key = (field_name, value)
        cached = self._exact_cache.get(key)
        if cached is not None:
            return cached
        field = self.layout.field(field_name)
        self._check_value(field, value)
        result = self.prefix(field_name, value, field.width)
        self._exact_cache[key] = result
        return result

    def prefix(self, field_name: str, value: int, plen: int) -> int:
        """Headers whose top ``plen`` bits of ``field_name`` match ``value``.

        ``value`` is the full-width field value; only its top ``plen`` bits
        are significant (the convention of IP routing tables).
        """
        field = self.layout.field(field_name)
        if not 0 <= plen <= field.width:
            raise ValueError(
                f"prefix length {plen} out of range for {field_name} "
                f"(width {field.width})"
            )
        self._check_value(field, value)
        base = self.layout.offset(field_name)
        literals = [
            (base + i, bool((value >> (field.width - 1 - i)) & 1))
            for i in range(plen)
        ]
        return self.bdd.cube(literals)

    def range_(self, field_name: str, lo: int, hi: int) -> int:
        """Headers with ``lo <= field <= hi`` (inclusive on both ends)."""
        field = self.layout.field(field_name)
        self._check_value(field, lo)
        self._check_value(field, hi)
        if lo > hi:
            return FALSE
        return self.bdd.or_many(
            self.prefix(field_name, value, plen)
            for value, plen in range_to_prefixes(lo, hi, field.width)
        )

    def not_equal(self, field_name: str, value: int) -> int:
        """Headers whose ``field_name`` differs from ``value``."""
        return self.bdd.not_(self.exact(field_name, value))

    def member(self, field_name: str, values: Iterable[int]) -> int:
        """Headers whose ``field_name`` is one of ``values``."""
        return self.bdd.or_many(self.exact(field_name, v) for v in values)

    def header_bdd(self, header: Mapping[str, int]) -> int:
        """Singleton BDD for one concrete header.

        Every field of the layout must be present: a tag report carries a
        complete 5-tuple, and the membership test ``header ≺ p.headers``
        (Algorithm 3, line 2) intersects this singleton with the path's
        header set.
        """
        literals: List[Tuple[int, bool]] = []
        for field in self.layout.fields:
            try:
                value = header[field.name]
            except KeyError:
                raise KeyError(
                    f"header missing field {field.name!r}: {dict(header)}"
                ) from None
            self._check_value(field, value)
            base = self.layout.offset(field.name)
            for i in range(field.width):
                literals.append(
                    (base + i, bool((value >> (field.width - 1 - i)) & 1))
                )
        return self.bdd.cube(literals)

    # -- rewrite transforms (header image / preimage) ----------------------

    def field_levels(self, field_name: str) -> List[int]:
        """The BDD variable levels spanned by a field."""
        field = self.layout.field(field_name)
        base = self.layout.offset(field_name)
        return list(range(base, base + field.width))

    def set_field(self, header_set: int, field_name: str, value: int) -> int:
        """Image of ``header_set`` under the rewrite ``field := value``.

        The field's old bits are existentially forgotten, then pinned to
        the new constant — exactly what an OpenFlow ``set_field`` does to a
        set of packets.
        """
        field = self.layout.field(field_name)
        self._check_value(field, value)
        forgotten = self.bdd.exists(header_set, self.field_levels(field_name))
        return self.bdd.and_(forgotten, self.exact(field_name, value))

    def apply_sets(
        self, header_set: int, sets: Sequence[Tuple[str, int]]
    ) -> int:
        """Image under an ordered sequence of ``field := value`` rewrites."""
        result = header_set
        for field_name, value in sets:
            result = self.set_field(result, field_name, value)
        return result

    def preimage_sets(
        self, constraint: int, sets: Sequence[Tuple[str, int]]
    ) -> int:
        """Headers whose *rewritten* version satisfies ``constraint``.

        For one op ``f := c``: a pre-rewrite header satisfies the
        constraint iff the constraint holds with ``f`` pinned to ``c`` —
        and the header's own ``f`` bits are then unconstrained.  A chain is
        inverted op-by-op in reverse order.
        """
        result = constraint
        for field_name, value in reversed(list(sets)):
            pinned = self.bdd.and_(result, self.exact(field_name, value))
            result = self.bdd.exists(pinned, self.field_levels(field_name))
        return result

    def rewrite_header(
        self, header: Dict[str, int], sets: Sequence[Tuple[str, int]]
    ) -> Dict[str, int]:
        """Apply rewrites to one concrete header mapping."""
        result = dict(header)
        for field_name, value in sets:
            field = self.layout.field(field_name)
            self._check_value(field, value)
            result[field_name] = value
        return result

    # -- queries ---------------------------------------------------------

    def contains(self, header_set: int, header: Mapping[str, int]) -> bool:
        """Is the concrete ``header`` a member of ``header_set``?

        Packs the header into one integer (:meth:`header_value`) and walks
        the BDD once with it instead of materialising the singleton BDD.
        """
        return self.bdd.evaluate_value(header_set, self.header_value(header))

    def header_value(self, header: Mapping[str, int]) -> int:
        """Pack a concrete header into one integer (level 0 = MSB).

        This is the input format of :meth:`repro.bdd.engine.BDD
        .evaluate_value` and :class:`repro.bdd.engine.NodePool`: the matcher
        extracts each variable's bit with one shift instead of a per-bit
        dict lookup, which is what makes the verification fast path cheap.
        """
        value = 0
        for field in self.layout.fields:
            v = header[field.name]
            if v >> field.width:
                raise ValueError(
                    f"value {v} out of range for field {field.name} "
                    f"(width {field.width})"
                )
            value = (value << field.width) | v
        return value

    def header_from_value(self, value: int) -> Dict[str, int]:
        """Unpack :meth:`header_value`'s integer back into a field mapping.

        The inverse the active prober needs: witness
        extraction (:func:`repro.core.vector.witness_cube`) produces packed
        values, and packet synthesis needs concrete fields.
        """
        if value < 0 or value >> self.layout.total_bits:
            raise ValueError(
                f"packed value {value} does not fit the "
                f"{self.layout.total_bits}-bit layout"
            )
        header: Dict[str, int] = {}
        for field in reversed(self.layout.fields):
            header[field.name] = value & field.max_value
            value >>= field.width
        return {field.name: header[field.name] for field in self.layout.fields}

    def sample_header(self, header_set: int) -> Optional[Dict[str, int]]:
        """One concrete header in ``header_set``, or ``None`` if empty.

        Don't-care bits are filled with zeros.  Used by workload generators
        to craft a packet that exercises a given path.
        """
        cube = self.bdd.pick(header_set)
        if cube is None:
            return None
        header: Dict[str, int] = {}
        for field in self.layout.fields:
            base = self.layout.offset(field.name)
            value = 0
            for i in range(field.width):
                value = (value << 1) | int(cube.get(base + i, False))
            header[field.name] = value
        return header

    def count_headers(self, header_set: int) -> int:
        """Number of concrete headers in the set."""
        return self.bdd.count(header_set)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _check_value(field: HeaderField, value: int) -> None:
        if not 0 <= value <= field.max_value:
            raise ValueError(
                f"value {value} out of range for field {field.name} "
                f"(width {field.width})"
            )


def range_to_prefixes(lo: int, hi: int, width: int) -> List[Tuple[int, int]]:
    """Decompose an integer range into maximal prefixes.

    Returns ``(value, plen)`` pairs whose (disjoint) union is ``[lo, hi]``.
    The classic result: any range over ``width`` bits needs at most
    ``2 * width - 2`` prefixes.
    """
    if not 0 <= lo <= hi < (1 << width):
        raise ValueError(f"bad range [{lo}, {hi}] for width {width}")
    prefixes: List[Tuple[int, int]] = []
    while lo <= hi:
        # Largest block size that is aligned at lo and fits in [lo, hi].
        if lo == 0:
            align = 1 << width
        else:
            align = lo & -lo  # largest power of two dividing lo
        size = align
        while size > hi - lo + 1:
            size >>= 1
        plen = width - size.bit_length() + 1
        prefixes.append((lo, plen))
        lo += size
    return prefixes


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad IPv4 text into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 octet {part!r} in {text!r}")
        value = (value << 8) | octet
    return value


def parse_prefix(text: str) -> Tuple[int, int]:
    """Parse ``"a.b.c.d/len"`` (or a bare address = /32) into (value, plen)."""
    if "/" in text:
        addr_text, plen_text = text.split("/", 1)
        plen = int(plen_text)
    else:
        addr_text, plen = text, 32
    if not 0 <= plen <= 32:
        raise ValueError(f"bad prefix length in {text!r}")
    value = parse_ipv4(addr_text)
    # Zero out host bits so equal prefixes compare equal.
    if plen < 32:
        mask = ((1 << plen) - 1) << (32 - plen) if plen else 0
        value &= mask
    return value, plen


def format_ipv4(value: int) -> str:
    """Format a 32-bit integer as dotted-quad text."""
    if not 0 <= value < (1 << 32):
        raise ValueError(f"value {value} is not a 32-bit address")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))
