"""Consistent-hash ring with virtual nodes (the cluster's placement law).

Placement must satisfy two properties the plain ``hash % N`` sharding of
the in-process daemon cannot give a *cluster*:

* **membership-local movement** — adding or removing one node may only
  move the keys that land on that node's arc, roughly ``pairs / N`` of
  them, instead of reshuffling almost everything (which would force a
  near-full replica resync on every join/leave),
* **determinism across processes** — the frontend, the coordinator and
  any test harness must compute the same owner for the same key with no
  shared state, so the ring hashes with SHA-1 over stable strings, never
  Python's per-process ``hash()``.

Virtual nodes smooth the arc sizes: each member contributes ``vnodes``
points, so the largest share over the smallest stays within a small
factor even at 2-3 members.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from ..digest import sha1

__all__ = ["HashRing"]


def _point(value: str) -> int:
    """64-bit ring position of a string (stable across processes)."""
    return int.from_bytes(sha1(value.encode()).digest()[:8], "big")


class HashRing:
    """Map string keys onto member names, consistently under churn."""

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []  # sorted (position, member)
        self._keys: List[int] = []  # positions only (bisect view)
        self._members: Dict[str, List[int]] = {}

    # -- membership --------------------------------------------------------

    def add(self, member: str) -> None:
        if member in self._members:
            raise ValueError(f"member {member!r} already on the ring")
        positions = []
        for v in range(self.vnodes):
            position = _point(f"{member}#{v}")
            bisect.insort(self._points, (position, member))
            positions.append(position)
        self._members[member] = positions
        self._keys = [p for p, _ in self._points]

    def remove(self, member: str) -> None:
        if member not in self._members:
            raise KeyError(f"member {member!r} is not on the ring")
        del self._members[member]
        self._points = [(p, m) for p, m in self._points if m != member]
        self._keys = [p for p, _ in self._points]

    def members(self) -> List[str]:
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    # -- placement ---------------------------------------------------------

    def owner(self, key: str) -> Optional[str]:
        """The member owning ``key`` (first point clockwise), None if empty."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._keys, _point(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def shares(self, sample_keys) -> Dict[str, int]:
        """Owner histogram over ``sample_keys`` (balance diagnostics)."""
        counts: Dict[str, int] = {m: 0 for m in self._members}
        for key in sample_keys:
            owner = self.owner(key)
            if owner is not None:
                counts[owner] += 1
        return counts
