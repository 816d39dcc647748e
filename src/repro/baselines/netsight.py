"""A postcard-collection baseline in the style of NetSight [29].

NetSight has every switch emit a *postcard* — (switch, in_port, out_port,
header digest) — for **every packet at every hop**, and a collector that
reassembles exact packet histories.  Detection and localization are then
trivial (the collector sees the literal path), but "since each packet will
trigger a postcard at each hop, NetSight will incur a huge volume of
postcards traffic on the data plane" (Section 7).

This module implements the collector and the per-hop postcard stream so
the overhead comparison against VeriDP's single sampled tag report per
packet can be measured rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.pathtable import PathTableBuilder
from ..netmodel.hops import Hop
from ..netmodel.packet import Header
from ..netmodel.topology import PortRef

__all__ = ["Postcard", "PacketHistory", "NetSightCollector", "POSTCARD_BYTES"]

#: Wire size of one postcard: the paper's design compresses to ~40B
#: (truncated header + switch/port ids + version); we count 40.
POSTCARD_BYTES = 40


@dataclass(frozen=True)
class Postcard:
    """One per-hop record emitted by a switch for one packet."""

    packet_id: int
    hop: Hop
    header: Header


@dataclass
class PacketHistory:
    """The collector's reassembled journey of one packet."""

    packet_id: int
    header: Header
    hops: List[Hop] = field(default_factory=list)

    def path(self) -> Tuple[Hop, ...]:
        """The exact hop sequence (postcards arrive in order here)."""
        return tuple(self.hops)


class NetSightCollector:
    """Collects postcards and reconstructs + checks packet histories."""

    def __init__(self, builder: Optional[PathTableBuilder] = None) -> None:
        self.builder = builder
        self._histories: Dict[int, PacketHistory] = {}
        self.postcards_received = 0

    # -- ingestion ---------------------------------------------------------

    def receive(self, postcard: Postcard) -> None:
        """Ingest one postcard."""
        history = self._histories.get(postcard.packet_id)
        if history is None:
            history = PacketHistory(postcard.packet_id, postcard.header)
            self._histories[postcard.packet_id] = history
        history.hops.append(postcard.hop)
        self.postcards_received += 1

    def record_walk(self, packet_id: int, header: Header, hops: List[Hop]) -> None:
        """Convenience: emit one postcard per hop of a finished walk."""
        for hop in hops:
            self.receive(Postcard(packet_id, hop, header))

    # -- queries ---------------------------------------------------------

    def history(self, packet_id: int) -> Optional[PacketHistory]:
        """The assembled history of one packet, if any postcards arrived."""
        return self._histories.get(packet_id)

    def traffic_bytes(self) -> int:
        """Total postcard bytes shipped to the collector."""
        return self.postcards_received * POSTCARD_BYTES

    def check_history(self, packet_id: int) -> Optional[bool]:
        """Compare a history against the control-plane expected path.

        Requires a builder; returns ``None`` when the packet is unknown.
        Detection here is exact — NetSight's strength — at the cost of the
        per-hop postcard volume the caller can read off
        :meth:`traffic_bytes`.
        """
        if self.builder is None:
            raise ValueError("collector needs a PathTableBuilder to check histories")
        history = self._histories.get(packet_id)
        if history is None:
            return None
        if not history.hops:
            return False
        entry_port = PortRef(history.hops[0].switch, history.hops[0].in_port)
        expected = self.builder.expected_path(entry_port, history.header.as_dict())
        return tuple(expected) == history.path()
