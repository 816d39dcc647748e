"""Verification coverage: how much of the configuration has been checked?

VeriDP only validates what sampled traffic exercises — a corrupted rule on
a path no flow currently uses stays invisible (the Table 3 campaigns show
exactly this: faults off the ping paths produce zero failed verifications).
Operators therefore need the complement of the incident log: *which parts
of the path table have actually been verified recently, and which are dark*.

:class:`CoverageTracker` consumes the same verification results the server
produces and reports per-pair, per-path, per-hop and per-switch coverage,
plus the dark list — the paths a probing round should exercise to close the
gap.  The server wires one in on the report path and exposes the numbers as
``veridp_coverage_*`` gauges; :class:`repro.probe.prober.ActiveProber`
drives its closed loop off :attr:`CoverageReport.dark_paths`.

Coverage rides the path table's dirty-pair journal: when incremental rule
updates mutate a pair's entries, that pair's accumulated coverage is
invalidated (the old verifications vouched for paths that no longer exist),
so after a staged flush only the dirty pairs go dark again — which is what
lets the prober re-probe exactly the changed slice of the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..netmodel.hops import Hop
from ..netmodel.topology import PortRef
from .pathtable import PathEntry, PathTable
from .verifier import VerificationResult

__all__ = ["CoverageReport", "CoverageTracker"]

#: An (inport, outport) edge-port pair — the path table's key.
Pair = Tuple[PortRef, PortRef]


@dataclass
class CoverageReport:
    """Snapshot of verification coverage over one path table."""

    total_paths: int
    verified_paths: int
    total_hops: int
    verified_hops: int
    total_pairs: int = 0
    verified_pairs: int = 0
    dark_paths: List[Tuple[PortRef, PortRef, PathEntry]] = field(default_factory=list)
    dark_pairs: List[Pair] = field(default_factory=list)
    switch_coverage: Dict[str, float] = field(default_factory=dict)

    @property
    def path_coverage(self) -> float:
        """Fraction of path-table entries verified at least once."""
        return self.verified_paths / self.total_paths if self.total_paths else 0.0

    @property
    def pair_coverage(self) -> float:
        """Fraction of (inport, outport) pairs with every entry verified."""
        return self.verified_pairs / self.total_pairs if self.total_pairs else 0.0

    @property
    def hop_coverage(self) -> float:
        """Fraction of distinct hops appearing on some verified path."""
        return self.verified_hops / self.total_hops if self.total_hops else 0.0

    def __str__(self) -> str:
        return (
            f"coverage: {self.verified_paths}/{self.total_paths} paths "
            f"({100 * self.path_coverage:.1f}%), "
            f"{self.verified_pairs}/{self.total_pairs} pairs, "
            f"{self.verified_hops}/{self.total_hops} hops "
            f"({100 * self.hop_coverage:.1f}%), {len(self.dark_paths)} dark"
        )


class CoverageTracker:
    """Track which path-table entries passing traffic has validated."""

    def __init__(self, table: PathTable) -> None:
        self.table = table
        self._verified_entries: Set[int] = set()  # id() of PathEntry objects
        self._verified_by_pair: Dict[Pair, Set[int]] = {}
        self._verified_hops: Set[Hop] = set()
        self.observations = 0
        #: Dirty-journal cursor: coverage recorded before this point has
        #: been reconciled against subsequent table mutations.
        self._token: Optional[Tuple[int, int]] = table.dirty_token()
        self.invalidated_pairs = 0
        self.full_invalidations = 0
        # report() memo: recomputing the O(table) aggregate on every metric
        # scrape would be wasteful; the key changes whenever the table, the
        # observation stream, or an invalidation does.
        self._gen = 0
        self._report_key: Optional[tuple] = None
        self._report_cache: Optional[CoverageReport] = None
        #: Optional ``(inport, outport, entry) -> tenant name`` hook (see
        #: :meth:`repro.slice.registry.SliceRegistry.entry_resolver`);
        #: enables the per-tenant :meth:`dark_paths` filter.
        self.tenant_resolver: Optional[
            Callable[[PortRef, PortRef, PathEntry], Optional[str]]
        ] = None

    # -- ingestion ---------------------------------------------------------

    def observe(self, result: VerificationResult) -> None:
        """Record one verification outcome.

        Only *passes* mark coverage: a failed verification tells you about
        a fault, not about the configured path working as intended.
        """
        self.observations += 1
        if not result.passed or result.matched_entry is None:
            return
        entry = result.matched_entry
        self._verified_entries.add(id(entry))
        if result.report is not None:
            pair = (result.report.inport, result.report.outport)
            self._verified_by_pair.setdefault(pair, set()).add(id(entry))
        self._verified_hops.update(entry.hops)

    # -- dirty-journal reconciliation ----------------------------------------

    def sync(self) -> Optional[List[Pair]]:
        """Drop coverage for pairs the table mutated since the last sync.

        Incremental updates edit entries in place (same ``id()``), so
        without this a rule change would leave the *old* path's verification
        vouching for the *new* path.  Returns the invalidated pairs, or
        ``None`` when the journal overflowed and everything was dropped.
        """
        token, dirty = self.table.dirty_since(self._token)
        self._token = token
        if dirty is None:
            if self._verified_entries or self.observations:
                self.full_invalidations += 1
                self._gen += 1
            self._verified_entries.clear()
            self._verified_by_pair.clear()
            self._verified_hops.clear()
            return None
        for pair in dirty:
            ids = self._verified_by_pair.pop(pair, None)
            if ids:
                self._verified_entries -= ids
                self.invalidated_pairs += 1
                self._gen += 1
        return dirty

    def retarget(self, table: PathTable) -> None:
        """Point at a rebuilt table, forgetting all accumulated coverage.

        Entry identity is ``id()``-based, so a full rebuild (which replaces
        every entry object) invalidates everything the tracker knows.
        """
        self.table = table
        self._token = table.dirty_token()
        self.reset()

    # -- reporting -----------------------------------------------------------

    def report(self) -> CoverageReport:
        """Aggregate the current coverage picture (memoized per state)."""
        self.sync()
        key = (id(self.table), self.table.version, self.observations, self._gen)
        if self._report_cache is not None and self._report_key == key:
            return self._report_cache
        all_hops: Set[Hop] = set()
        total_paths = 0
        verified_paths = 0
        total_pairs = 0
        verified_pairs = 0
        dark: List[Tuple[PortRef, PortRef, PathEntry]] = []
        dark_pairs: List[Pair] = []
        for inport, outport in self.table.pairs():
            total_pairs += 1
            pair_dark = False
            for entry in self.table.lookup(inport, outport):
                total_paths += 1
                if id(entry) in self._verified_entries:
                    verified_paths += 1
                else:
                    pair_dark = True
                    dark.append((inport, outport, entry))
                for hop in entry.hops:
                    all_hops.add(hop)
            if pair_dark:
                dark_pairs.append((inport, outport))
            else:
                verified_pairs += 1
        # Per-switch tallies over distinct hops.
        switch_total: Dict[str, int] = {}
        switch_hit: Dict[str, int] = {}
        for hop in all_hops:
            switch_total[hop.switch] = switch_total.get(hop.switch, 0) + 1
            if hop in self._verified_hops:
                switch_hit[hop.switch] = switch_hit.get(hop.switch, 0) + 1
        coverage = {
            switch: switch_hit.get(switch, 0) / count
            for switch, count in switch_total.items()
        }
        result = CoverageReport(
            total_paths=total_paths,
            verified_paths=verified_paths,
            total_hops=len(all_hops),
            verified_hops=len(self._verified_hops & all_hops),
            total_pairs=total_pairs,
            verified_pairs=verified_pairs,
            dark_paths=dark,
            dark_pairs=dark_pairs,
            switch_coverage=coverage,
        )
        self._report_key = key
        self._report_cache = result
        return result

    def dark_paths(
        self, tenant: Optional[str] = None
    ) -> List[Tuple[PortRef, PortRef, PathEntry]]:
        """The dark list, optionally filtered to one tenant's slice.

        Without a tenant (or without a :attr:`tenant_resolver`) this is
        the full :attr:`CoverageReport.dark_paths` list.  With both, only
        entries the resolver attributes to ``tenant`` are returned — the
        per-slice probing work list.
        """
        dark = self.report().dark_paths
        if tenant is None or self.tenant_resolver is None:
            return list(dark)
        resolve = self.tenant_resolver
        return [
            (inport, outport, entry)
            for inport, outport, entry in dark
            if resolve(inport, outport, entry) == tenant
        ]

    def reset(self) -> None:
        """Forget all coverage (e.g. after a configuration change)."""
        self._verified_entries.clear()
        self._verified_by_pair.clear()
        self._verified_hops.clear()
        self.observations = 0
        self._gen += 1
        self._report_key = None
        self._report_cache = None
