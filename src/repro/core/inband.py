"""In-band VeriDP state encoding — the packet format of Section 5.

The paper carries three fields inside each sampled packet:

* ``marker`` — one bit in the IP TOS field ("whether the packet is sampled
  for verification"),
* ``tag`` — the 16-bit Bloom filter, in the Tag Control Information (TCI)
  of the **first** (outer, 802.1ad S-) VLAN tag,
* ``inport`` — the 14-bit entry-port id (8-bit switch + 6-bit port), in
  the TCI of the **second** (inner, C-) VLAN tag.

This module packs/unpacks those bytes exactly as they would sit on the
wire, so the encoding constraints (16-bit tag ceiling, 14-bit port space,
TCI layout with PCP/DEI bits) are exercised by real serialisation rather
than assumed.  The double-tag stack is 8 bytes::

    [TPID 0x88A8][TCI = tag] [TPID 0x8100][TCI = inport (low 14 bits)]
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "InbandState",
    "encode_vlan_stack",
    "decode_vlan_stack",
    "set_marker",
    "get_marker",
    "TPID_OUTER",
    "TPID_INNER",
    "VLAN_STACK_BYTES",
]

#: 802.1ad service-tag TPID (the outer tag of a QinQ stack).
TPID_OUTER = 0x88A8
#: 802.1Q customer-tag TPID (the inner tag).
TPID_INNER = 0x8100
#: Size of the double-tag stack on the wire.
VLAN_STACK_BYTES = 8

#: The TOS bit used as the sampling marker (one of the two reserved bits).
_MARKER_BIT = 0x01

_STACK = struct.Struct(">HHHH")


@dataclass(frozen=True)
class InbandState:
    """The VeriDP in-band fields of one sampled packet."""

    marker: bool
    tag: int
    inport_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.tag <= 0xFFFF:
            raise ValueError(
                f"tag {self.tag:#x} does not fit the 16-bit VLAN TCI"
            )
        if not 0 <= self.inport_id < (1 << 14):
            raise ValueError(
                f"inport id {self.inport_id:#x} does not fit in 14 bits"
            )


def encode_vlan_stack(tag: int, inport_id: int) -> bytes:
    """Serialise tag + inport into the 8-byte double-VLAN stack."""
    state = InbandState(marker=True, tag=tag, inport_id=inport_id)  # validates
    return _STACK.pack(TPID_OUTER, state.tag, TPID_INNER, state.inport_id)


def decode_vlan_stack(data: bytes) -> Tuple[int, int]:
    """Parse an 8-byte double-VLAN stack back into ``(tag, inport_id)``.

    Raises ``ValueError`` on wrong length or unexpected TPIDs (a packet
    without the VeriDP stack must not be misparsed as one).
    """
    if len(data) != VLAN_STACK_BYTES:
        raise ValueError(
            f"VLAN stack is {len(data)} bytes, expected {VLAN_STACK_BYTES}"
        )
    tpid_outer, tci_outer, tpid_inner, tci_inner = _STACK.unpack(data)
    if tpid_outer != TPID_OUTER or tpid_inner != TPID_INNER:
        raise ValueError(
            f"unexpected TPIDs {tpid_outer:#06x}/{tpid_inner:#06x}; "
            "not a VeriDP double-tag stack"
        )
    return tci_outer, tci_inner & 0x3FFF


def set_marker(tos: int, marker: bool) -> int:
    """Set/clear the sampling-marker bit in an IP TOS byte."""
    if not 0 <= tos <= 0xFF:
        raise ValueError(f"TOS byte out of range: {tos}")
    return (tos | _MARKER_BIT) if marker else (tos & ~_MARKER_BIT)


def get_marker(tos: int) -> bool:
    """Read the sampling-marker bit from an IP TOS byte."""
    if not 0 <= tos <= 0xFF:
        raise ValueError(f"TOS byte out of range: {tos}")
    return bool(tos & _MARKER_BIT)
