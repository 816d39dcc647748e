"""Hops.

A *hop* is the paper's 3-tuple ``<input_port, switch_ID, output_port>``: the
forwarding behaviour of one switch on one packet.  A *path* is an ordered
list of hops.  Tags are Bloom filters over hops; the path table stores the
hop sequence alongside each tag so the localizer can reason hop-by-hop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rules import DROP_PORT

__all__ = ["Hop"]


@dataclass(frozen=True, order=True, slots=True)
class Hop:
    """One switch traversal: ``<in_port, switch, out_port>``.

    ``out_port == DROP_PORT`` encodes the paper's ``⊥`` (the packet was
    dropped by this switch's tables).
    """

    in_port: int
    switch: str
    out_port: int

    def key_bytes(self) -> bytes:
        """Canonical byte encoding ``x || s || y`` hashed into Bloom tags.

        The encoding must be injective over hops; we length-prefix the
        switch id and use fixed-width ports so no two distinct hops collide
        before hashing.
        """
        sid = self.switch.encode("utf-8")
        return (
            self.in_port.to_bytes(4, "big", signed=True)
            + len(sid).to_bytes(2, "big")
            + sid
            + self.out_port.to_bytes(4, "big", signed=True)
        )

    def __str__(self) -> str:
        out = "⊥" if self.out_port == DROP_PORT else str(self.out_port)
        return f"<{self.in_port}|{self.switch}|{out}>"

