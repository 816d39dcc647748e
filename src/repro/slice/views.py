"""Per-tenant views of the shared path table.

A :class:`TenantPathTable` is a private :class:`~repro.core.pathtable.PathTable`
holding, for each (inport, outport) pair, the shared table's entries
intersected with the tenant's footprint.  Crucially the view lives on the
**same** :class:`~repro.bdd.headerspace.HeaderSpace`: every sliced header
set is just another node in the shared hash-consed store, so N tenants do
not cost N node tables, and re-slicing the same entry twice allocates
nothing new.

Views resync *lazily* off the shared table's dirty-pair journal: each view
holds its own cursor, and :meth:`TenantPathTable.sync` re-slices only the
pairs that mutated since the last sync (falling back to a full re-slice on
journal overflow).  Because the view is itself a real ``PathTable``, each
tenant gets the whole acceleration stack for free — per-pair fast indexes
and a private dirty-pair journal its own consumers can ride.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..bdd.headerspace import HeaderSpace
from ..core.pathtable import PathEntry, PathTable
from ..netmodel.topology import PortRef
from .registry import Tenant

__all__ = ["TenantPathTable"]


class TenantPathTable:
    """One tenant's slice of a shared path table, journal-synced."""

    def __init__(
        self, shared: PathTable, hs: HeaderSpace, tenant: Tenant
    ) -> None:
        self.shared = shared
        self.hs = hs
        self.tenant = tenant
        self.table = PathTable()
        self._token: Optional[Tuple[int, int]] = None  # None => full sync
        self.pair_syncs = 0  # pairs re-sliced (incremental work done)
        self.full_syncs = 0  # journal overflows forcing a full re-slice
        self.sync()

    # -- journal-driven resync ---------------------------------------------

    def sync(self) -> int:
        """Re-slice every pair the shared table dirtied; returns the count."""
        token, dirty = self.shared.dirty_since(self._token)
        self._token = token
        if dirty is None:
            self.full_syncs += 1
            pairs = list(
                dict.fromkeys(self.shared.pairs() + self.table.pairs())
            )
        elif not dirty:
            return 0
        else:
            pairs = dirty
        for inport, outport in pairs:
            self._sync_pair(inport, outport)
        self.pair_syncs += len(pairs)
        return len(pairs)

    def _sync_pair(self, inport: PortRef, outport: PortRef) -> bool:
        bdd = self.hs.bdd
        footprint = self.tenant.footprint
        sliced: List[PathEntry] = []
        for entry in self.shared.lookup(inport, outport):
            headers = bdd.and_(entry.headers, footprint)
            if headers == self.hs.empty:
                continue
            if entry.rewrites:
                exit_headers = self.hs.apply_sets(headers, entry.rewrites)
            else:
                exit_headers = None
            sliced.append(
                PathEntry(
                    headers=headers,
                    hops=entry.hops,
                    tag=entry.tag,
                    exit_headers=exit_headers,
                    rewrites=entry.rewrites,
                )
            )
        return self.table.replace_pair(inport, outport, sliced)

    def retarget(self, shared: PathTable) -> None:
        """Point at a replacement shared table (full rebuild swapped it)."""
        self.shared = shared
        self._token = None
        self.sync()

    # -- read API (delegating to the private table) --------------------------

    def lookup(self, inport: PortRef, outport: PortRef) -> Tuple[PathEntry, ...]:
        return self.table.lookup(inport, outport)

    def pairs(self) -> List[Tuple[PortRef, PortRef]]:
        return self.table.pairs()

    def num_paths(self) -> int:
        return self.table.num_paths()

    def stats(self):
        return self.table.stats()

    def __len__(self) -> int:
        return len(self.table)
