"""Representative-header derivation from path-table BDDs.

Passive VeriDP verifies whatever sampled traffic exercises; the active
prober needs the opposite: for each path-table entry, *one* concrete packet
header guaranteed to traverse that entry's configured path.  Because the
path table partitions each (inport, outport) pair's headers by path
(deterministic forwarding: per pair, entry header sets are disjoint), one
witness per entry is a **minimal** probe set for the pair — fewer probes
would leave some entry unexercised (property-tested against brute-force
set cover in ``tests/probe/test_headers.py``).

Witness extraction reuses the vector kernel's cube machinery
(:func:`repro.core.vector.cubes_of`) on the BDD manager's own nodes: a
cube-poor header set enumerates its cubes and takes the *widest* one
(fewest specified bits — the probe header least entangled with adjacent
rule boundaries, don't-cares zero-filled); a cube-rich one falls back to
:func:`repro.core.vector.witness_cube`, a single greedy BDD descent to
TRUE.  Both tiers are deterministic, so
replanning after rule churn regenerates identical headers for untouched
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bdd.headerspace import HeaderSpace
from ..core.pathtable import PathEntry, PathTable
from ..core.vector import cubes_of, witness_cube
from ..netmodel.packet import Header
from ..netmodel.topology import PortRef

__all__ = [
    "REPRESENTATIVE_CUBE_CAP",
    "DerivationStats",
    "PlannedProbe",
    "representative_value",
    "representative_header",
    "plan_pair",
    "plan_table",
]


#: Matchers with more cubes than this skip enumeration and use the
#: single-witness descent instead (the cap bounds planning cost, not
#: correctness — both tiers yield a satisfying header).
REPRESENTATIVE_CUBE_CAP = 64


@dataclass
class DerivationStats:
    """How representative headers were extracted (feeds probe metrics)."""

    cube_tier: int = 0  # witnesses picked from full cube enumeration
    descent_tier: int = 0  # witnesses from the greedy BDD descent
    empty: int = 0  # entries whose header set was FALSE (no witness)

    @property
    def derived(self) -> int:
        return self.cube_tier + self.descent_tier


@dataclass(frozen=True)
class PlannedProbe:
    """One probe packet: inject ``header`` at ``inport``, expect ``entry``."""

    inport: PortRef
    outport: PortRef
    entry: PathEntry
    header: Header


def representative_value(
    hs: HeaderSpace,
    header_set: int,
    cap: int = REPRESENTATIVE_CUBE_CAP,
    stats: Optional[DerivationStats] = None,
) -> Optional[int]:
    """A satisfying packed header value for ``header_set``, or ``None``.

    Deterministic: the widest cube (fewest specified bits, ties broken by
    smallest value) when the matcher enumerates under ``cap`` cubes, else
    the greedy descent witness.  Don't-care bits are zero-filled, so the
    returned value is directly a ``BDD.evaluate_value`` input and
    unpacks via :meth:`HeaderSpace.header_from_value`.
    """
    pool = hs.bdd.pool((header_set,))
    cubes = cubes_of(pool, 0, cap)
    if cubes is not None:
        if not cubes:
            if stats is not None:
                stats.empty += 1
            return None
        _, want = min(cubes, key=lambda mw: (bin(mw[0]).count("1"), mw[1]))
        if stats is not None:
            stats.cube_tier += 1
        return want
    cube = witness_cube(pool, 0)
    if cube is None:  # unreachable: cubes_of returns [] for FALSE
        if stats is not None:
            stats.empty += 1
        return None
    if stats is not None:
        stats.descent_tier += 1
    return cube[1]


def representative_header(
    hs: HeaderSpace,
    header_set: int,
    cap: int = REPRESENTATIVE_CUBE_CAP,
    stats: Optional[DerivationStats] = None,
) -> Optional[Dict[str, int]]:
    """Like :func:`representative_value`, unpacked into header fields."""
    value = representative_value(hs, header_set, cap=cap, stats=stats)
    if value is None:
        return None
    return hs.header_from_value(value)


def plan_pair(
    table: PathTable,
    hs: HeaderSpace,
    inport: PortRef,
    outport: PortRef,
    stats: Optional[DerivationStats] = None,
) -> List[PlannedProbe]:
    """One probe per entry of the pair, each distinguishing its entry.

    Each witness is drawn from the entry's headers *minus* every earlier
    entry's — a no-op when the pair's entries are disjoint (the
    deterministic-forwarding invariant), but it keeps probes unambiguous
    if a table ever holds overlapping same-pair entries.
    """
    probes: List[PlannedProbe] = []
    bdd = hs.bdd
    seen = hs.empty
    entries = table.lookup(inport, outport)
    for entry in entries:
        target = entry.headers
        if len(entries) > 1 and seen != hs.empty:
            residual = bdd.diff(entry.headers, seen)
            if residual != hs.empty:
                target = residual
        header = representative_header(hs, target, stats=stats)
        if header is not None:
            probes.append(
                PlannedProbe(
                    inport=inport,
                    outport=outport,
                    entry=entry,
                    header=Header(**header),
                )
            )
        if len(entries) > 1:
            seen = bdd.or_(seen, entry.headers)
    return probes


def plan_table(
    table: PathTable,
    hs: HeaderSpace,
    stats: Optional[DerivationStats] = None,
) -> Dict[Tuple[PortRef, PortRef], List[PlannedProbe]]:
    """A full probe plan: every pair's representative set."""
    return {
        (inport, outport): plan_pair(table, hs, inport, outport, stats=stats)
        for inport, outport in table.pairs()
    }
