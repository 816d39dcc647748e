"""Packet and header models.

A :class:`Header` is the immutable classic 5-tuple that VeriDP verifies
against path-table header sets (the paper assumes no packet rewrites, so the
header is constant along a path).  A :class:`Packet` wraps a header together
with the mutable VeriDP in-band state the pipeline manipulates (Section 5,
"Packet format"): a 1-bit sampling *marker*, the Bloom-filter *tag* carried
in the first VLAN tag, the 14-bit *inport* identifier carried in the second
VLAN tag, and the verification TTL of Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..bdd.headerspace import format_ipv4, parse_ipv4

__all__ = ["Header", "Packet", "PROTO_TCP", "PROTO_UDP", "PROTO_ICMP"]

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


@dataclass(frozen=True, slots=True)
class Header:
    """An immutable TCP/IP 5-tuple.

    IP addresses are stored as 32-bit integers; use :meth:`from_strings` for
    dotted-quad convenience.
    """

    src_ip: int = 0
    dst_ip: int = 0
    proto: int = PROTO_TCP
    src_port: int = 0
    dst_port: int = 0

    def __post_init__(self) -> None:
        self._check("src_ip", self.src_ip, 32)
        self._check("dst_ip", self.dst_ip, 32)
        self._check("proto", self.proto, 8)
        self._check("src_port", self.src_port, 16)
        self._check("dst_port", self.dst_port, 16)

    @staticmethod
    def _check(name: str, value: int, width: int) -> None:
        if not 0 <= value < (1 << width):
            raise ValueError(f"{name}={value} does not fit in {width} bits")

    @classmethod
    def from_strings(
        cls,
        src_ip: str = "0.0.0.0",
        dst_ip: str = "0.0.0.0",
        proto: int = PROTO_TCP,
        src_port: int = 0,
        dst_port: int = 0,
    ) -> "Header":
        """Build a header from dotted-quad address text."""
        return cls(
            src_ip=parse_ipv4(src_ip),
            dst_ip=parse_ipv4(dst_ip),
            proto=proto,
            src_port=src_port,
            dst_port=dst_port,
        )

    def as_dict(self) -> Dict[str, int]:
        """Field mapping in the shape :class:`repro.bdd.HeaderSpace` expects."""
        return {
            "src_ip": self.src_ip,
            "dst_ip": self.dst_ip,
            "proto": self.proto,
            "src_port": self.src_port,
            "dst_port": self.dst_port,
        }

    def five_tuple(self) -> Tuple[int, int, int, int, int]:
        """The flow key used by the sampling module (Section 5)."""
        return (self.src_ip, self.dst_ip, self.proto, self.src_port, self.dst_port)

    def with_(self, **overrides: int) -> "Header":
        """A copy with some fields replaced."""
        return replace(self, **overrides)

    def __str__(self) -> str:
        return (
            f"{format_ipv4(self.src_ip)}:{self.src_port} -> "
            f"{format_ipv4(self.dst_ip)}:{self.dst_port} proto={self.proto}"
        )


@dataclass
class Packet:
    """A packet in flight: an immutable header plus mutable VeriDP state.

    Attributes mirror the in-band fields the paper adds to sampled packets:

    * ``marker`` — sampled-for-verification bit (IP TOS bit in the paper),
    * ``tag`` — the Bloom-filter path tag (16 bits by default),
    * ``ttl`` — verification TTL, initialised to ``MAX_PATH_LENGTH`` at the
      entry switch and decremented per hop (loop cut-off),
    * ``inport_id`` — encoded entry port (8-bit switch id + 6-bit port id),
    * ``size`` — payload size in bytes, used only by the latency model.
    """

    header: Header
    size: int = 512
    marker: bool = False
    tag: int = 0
    ttl: Optional[int] = None
    inport_id: Optional[int] = None
    hops_taken: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")

    @property
    def flow_key(self) -> Tuple[int, int, int, int, int]:
        """Flow identity for sampling state lookup."""
        return self.header.five_tuple()

    def copy(self) -> "Packet":
        """An independent copy (fresh VeriDP state container)."""
        clone = Packet(
            header=self.header,
            size=self.size,
            marker=self.marker,
            tag=self.tag,
            ttl=self.ttl,
            inport_id=self.inport_id,
        )
        clone.hops_taken = list(self.hops_taken)
        return clone
