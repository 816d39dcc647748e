"""The path table and its construction — Sections 3.4 and 4.1 (Algorithm 2).

The *path table* is VeriDP's control-plane abstraction: it maps each pair of
edge ports ``(inport, outport)`` to the list of forwarding paths between
them, where each path carries

* ``hops``    — the sequence of ``<in_port, switch, out_port>`` hops,
* ``headers`` — the BDD of packet headers that should follow this path,
* ``tag``     — the Bloom-filter tag a correctly forwarded packet collects.

Construction (Algorithm 2) injects the all-match header set at every edge
port and recursively splits it across each switch's transfer predicates,
recording a path entry whenever the flow reaches another edge port or the
drop port ``⊥``.  Loops are cut by refusing to revisit an ingress port on
the same path (the Section 6.1 rule) plus a TTL bound.

The builder can also record *reach records* — every (header set, partial
path) that arrives at each switch during the traversal.  The incremental
updater (Section 4.4) consumes these to continue traversals from a changed
switch without rebuilding the table.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Protocol, Tuple

from ..bdd.engine import FALSE
from ..bdd.headerspace import HeaderSpace
from ..netmodel.hops import Hop
from ..netmodel.predicates import (
    SwitchPredicates,
    TransferAction,
    build_all_predicates,
)
from ..netmodel.rules import DROP_PORT
from ..netmodel.topology import PortRef, Topology
from .bloom import BloomTagScheme

__all__ = [
    "PathEntry",
    "PathTable",
    "PathTableStats",
    "PairFastIndex",
    "match_pair",
    "ReachRecord",
    "PredicateProvider",
    "SnapshotProvider",
    "PathTableBuilder",
]

#: Pairs with more entries than this skip the pairwise-disjointness probe
#: (it is quadratic in the entry count); they use the exact list-order scan.
_DISJOINT_PROBE_LIMIT = 32

#: Dirty-pair log bound.  Past this the log collapses to an "everything
#: dirty" epoch bump — delta consumers then do one full resync, which for a
#: mutation burst this large is cheaper than shipping the delta anyway.
_DIRTY_LOG_CAP = 4096

#: Process-wide dirty-epoch allocator.  Epochs are unique across *all*
#: PathTable instances so a token minted against one table can never
#: accidentally validate against another (e.g. after refresh_if_dirty swaps
#: the table object out from under a delta consumer).
_DIRTY_EPOCHS = itertools.count(1)


@dataclass
class PathEntry:
    """One path of the path table: header sets + hop sequence + tag.

    ``headers`` is the set of headers *as they enter the network* that
    follow this path; ``exit_headers`` is that set's image through the
    path's rewrite chain (what the exit switch reports).  With no rewrites
    on the path the two are the same BDD, and ``rewrites`` is empty.
    """

    headers: int  # BDD node id (owned by the builder's HeaderSpace)
    hops: Tuple[Hop, ...]
    tag: int
    exit_headers: Optional[int] = None
    rewrites: Tuple[Tuple[str, int], ...] = ()

    def __setstate__(self, state: dict) -> None:
        # A snapshot written before node pools pickled a compiled FlatBDD
        # matcher beside every entry; reports are now matched on the
        # manager's own nodes, so the copy is dropped on load.
        state.pop("compiled", None)
        self.__dict__.update(state)

    def exit_header_set(self) -> int:
        """The header set an exit-switch report is matched against."""
        return self.headers if self.exit_headers is None else self.exit_headers

    def path_length(self) -> int:
        """Number of hops (switch traversals) on the path."""
        return len(self.hops)

    def __str__(self) -> str:
        path = " -> ".join(str(hop) for hop in self.hops)
        suffix = ""
        if self.rewrites:
            suffix = " rw[" + ",".join(f"{n}={v}" for n, v in self.rewrites) + "]"
        return f"PathEntry(tag={self.tag:#06x}, {path}){suffix}"


@dataclass
class PathTableStats:
    """The Table 2 row for one built path table."""

    num_pairs: int
    num_paths: int
    avg_path_length: float
    build_time_s: float

    def __str__(self) -> str:
        return (
            f"{self.num_pairs} entries, {self.num_paths} paths, "
            f"avg len {self.avg_path_length:.2f}, built in {self.build_time_s:.2f}s"
        )


@dataclass
class ReachRecord:
    """A (header set, partial path) pair that arrived at a switch.

    ``in_port`` is the local ingress port at the recorded switch; ``hops``
    is the path taken so far (not including any hop of this switch); ``tag``
    is the tag accumulated over ``hops``.
    """

    inport: PortRef
    switch: str
    in_port: int
    headers: int
    hops: Tuple[Hop, ...]
    tag: int


class PredicateProvider(Protocol):
    """Anything that can answer "where do headers go at this switch?".

    ``transfer_map(switch, x)`` returns ``{out_port: header_bdd}`` covering
    the full header space (``DROP_PORT`` included), exactly like
    :meth:`repro.netmodel.predicates.SwitchPredicates.transfer_map`.
    """

    def transfer_map(self, switch_id: str, in_port: int) -> Dict[int, int]:
        """Per-output-port transfer predicates for packets entering at ``in_port``."""
        ...


class SnapshotProvider:
    """Default provider: transfer predicates snapshotted from the flow tables."""

    def __init__(self, topo: Topology, hs: HeaderSpace) -> None:
        self._preds: Dict[str, SwitchPredicates] = build_all_predicates(topo, hs)

    def transfer_map(self, switch_id: str, in_port: int) -> Dict[int, int]:
        """Delegate to the per-switch snapshot."""
        return self._preds[switch_id].transfer_map(in_port)

    def transfer_actions(self, switch_id: str, in_port: int) -> List[TransferAction]:
        """Rewrite-aware transfer slices (memoized by the snapshot)."""
        return self._preds[switch_id].transfer_actions(in_port)

    def refresh(self, topo: Topology, hs: HeaderSpace) -> None:
        """Re-snapshot after flow-table changes."""
        self._preds = build_all_predicates(topo, hs)


class PairFastIndex:
    """Verification acceleration state for one (inport, outport) pair.

    ``entries`` is a snapshot tuple of the pair's path entries (table
    order).  ``spec`` is the pair spec ``(tags, pool, by_tag, disjoint)``
    that :func:`match_pair` tests a header against, built once here and
    shared as is with every shard replica: the entries' tags, a
    :class:`~repro.bdd.engine.NodePool` of their exit-header sets (root
    ids into the manager's own node lists), each tag's entry positions,
    and whether the exit-header sets are pairwise disjoint — only then is
    tag-first ordering provably verdict-identical to the list-order scan
    (at most one entry can contain any given header).
    """

    __slots__ = ("entries", "spec")

    def __init__(self, entries: Tuple[PathEntry, ...], spec: tuple) -> None:
        self.entries = entries
        self.spec = spec


def _build_pair_index(
    entries: Tuple[PathEntry, ...], hs: HeaderSpace
) -> PairFastIndex:
    buckets: Dict[int, List[int]] = {}
    for pos, entry in enumerate(entries):
        buckets.setdefault(entry.tag, []).append(pos)
    sets = [entry.exit_header_set() for entry in entries]
    disjoint = False
    if len(entries) <= _DISJOINT_PROBE_LIMIT:
        disjoint = True
        bdd = hs.bdd
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if bdd.and_(sets[i], sets[j]) != FALSE:
                    disjoint = False
                    break
            if not disjoint:
                break
    spec = (
        tuple(entry.tag for entry in entries),
        hs.bdd.pool(sets),
        {tag: tuple(positions) for tag, positions in buckets.items()},
        disjoint,
    )
    return PairFastIndex(entries, spec)


def match_pair(spec: tuple, tag: int, value: int) -> int:
    """Position of the pair entry whose header set holds ``value``, or -1.

    The one scalar header-set test of Algorithm 3, run by the
    :class:`~repro.core.verifier.Verifier` and by every shard replica.
    ``spec`` is a pair spec ``(tags, pool, by_tag, disjoint)``, ``tag``
    the report's tag and ``value`` its header packed by
    :meth:`~repro.bdd.headerspace.HeaderSpace.header_value`.  The first
    entry in table order that holds wins; on a disjoint pair at most one
    can, so the entries carrying ``tag`` are tried first and the common
    PASS ends after one dict probe and one BDD walk.
    """
    tags, pool, by_tag, disjoint = spec
    holds = pool.evaluate
    if disjoint:
        for pos in by_tag.get(tag, ()):
            if holds(pos, value):
                return pos
        for pos in range(len(tags)):
            if tags[pos] != tag and holds(pos, value):
                return pos
        return -1
    for pos in range(len(tags)):
        if holds(pos, value):
            return pos
    return -1


class PathTable:
    """The verification index: ``(inport, outport) -> [PathEntry]``.

    ``version`` counts structural mutations; consumers holding derived state
    (the per-pair fast indexes kept here, the server's failure epoch) compare
    it to decide whether their snapshots are still valid.  Code that mutates
    entries *in place* (the incremental updater) must call :meth:`touch`.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[PortRef, PortRef], List[PathEntry]] = {}
        self.build_time_s: float = 0.0
        self.version: int = 0
        self._fast_cache: Dict[Tuple[PortRef, PortRef], PairFastIndex] = {}
        self._fast_version: int = -1
        self._fast_token: Optional[Tuple[int, int]] = None
        self._stats_cache: Optional[Tuple[Tuple[int, float], PathTableStats]] = None
        # Dirty-pair journal: every structural/in-place mutation notes the
        # affected (inport, outport) pair so delta consumers (fast-index
        # cache, sharded-daemon replica resync) can update just those pairs
        # instead of recompiling the whole table.
        self._dirty_log: List[Tuple[PortRef, PortRef]] = []
        self._dirty_epoch: int = next(_DIRTY_EPOCHS)

    def add(self, inport: PortRef, outport: PortRef, entry: PathEntry) -> None:
        """Append a path for an (inport, outport) pair."""
        self._entries.setdefault((inport, outport), []).append(entry)
        self.note_dirty(inport, outport)
        self.version += 1

    def touch(self, tracked: bool = False) -> None:
        """Record an out-of-band mutation (in-place entry edits).

        ``tracked=True`` promises every mutated pair was already reported
        via :meth:`note_dirty`; otherwise the whole table is conservatively
        marked dirty (legacy callers that edit entries directly).
        """
        self.version += 1
        if not tracked:
            self._mark_all_dirty()

    # -- dirty-pair journal (table deltas) -----------------------------------

    def note_dirty(self, inport: PortRef, outport: PortRef) -> None:
        """Report that the pair's entry list (or an entry in it) changed."""
        log = self._dirty_log
        log.append((inport, outport))
        if len(log) > _DIRTY_LOG_CAP:
            self._mark_all_dirty()

    def _mark_all_dirty(self) -> None:
        self._dirty_epoch = next(_DIRTY_EPOCHS)
        self._dirty_log.clear()

    def dirty_token(self) -> Tuple[int, int]:
        """Opaque cursor over the dirty journal, positioned at "now"."""
        return (self._dirty_epoch, len(self._dirty_log))

    def dirty_since(
        self, token: Optional[Tuple[int, int]]
    ) -> Tuple[Tuple[int, int], Optional[List[Tuple[PortRef, PortRef]]]]:
        """Pairs mutated since ``token`` plus a fresh cursor.

        Returns ``(new_token, pairs)`` where ``pairs`` is ``None`` when the
        journal overflowed (or the caller never synced): everything must be
        treated as dirty.  Pairs are deduplicated, first-mutation order.
        """
        current = (self._dirty_epoch, len(self._dirty_log))
        if token is None or token[0] != self._dirty_epoch:
            return current, None
        return current, list(dict.fromkeys(self._dirty_log[token[1] :]))

    def replace_pair(
        self, inport: PortRef, outport: PortRef, entries: List[PathEntry]
    ) -> bool:
        """Swap one pair's entry list wholesale; returns True if it changed.

        The tenant views (:mod:`repro.slice.views`) resync a dirty pair by
        re-slicing the shared table's entries and replacing their private
        copy in one step.  An empty ``entries`` removes the pair.  A
        replacement that would be a no-op (same headers/hops/tags in the
        same order) is skipped entirely, so the view's *own* dirty journal
        and version only move when its slice really changed.
        """
        key = (inport, outport)
        current = self._entries.get(key)
        if not entries:
            if current is None:
                return False
            del self._entries[key]
        else:
            if current is not None and len(current) == len(entries):
                if all(
                    old.headers == new.headers
                    and old.hops == new.hops
                    and old.tag == new.tag
                    and old.exit_headers == new.exit_headers
                    for old, new in zip(current, entries)
                ):
                    return False
            self._entries[key] = list(entries)
        self.note_dirty(inport, outport)
        self.version += 1
        return True

    def lookup(self, inport: PortRef, outport: PortRef) -> Tuple[PathEntry, ...]:
        """All paths for the pair (empty tuple if the pair is unknown).

        Returns an immutable snapshot: the table's internal lists must only
        change through :meth:`add`/:meth:`remove_empty` so the version
        counter stays truthful.
        """
        entries = self._entries.get((inport, outport))
        if entries is None:
            return ()
        return tuple(entries)

    def fast_index(
        self, inport: PortRef, outport: PortRef, hs: HeaderSpace
    ) -> Optional[PairFastIndex]:
        """The pair's :class:`PairFastIndex`, or ``None`` for unknown pairs.

        Indexes are built lazily per pair.  When the table version moves the
        dirty-pair journal says exactly which pairs changed, so only those
        indexes are dropped; a journal overflow (or untracked mutation)
        falls back to dropping everything.  Either way stale membership is
        impossible.
        """
        if self._fast_version != self.version:
            token, dirty = self.dirty_since(self._fast_token)
            if dirty is None:
                self._fast_cache.clear()
            else:
                for dirty_key in dirty:
                    self._fast_cache.pop(dirty_key, None)
            self._fast_token = token
            self._fast_version = self.version
        key = (inport, outport)
        index = self._fast_cache.get(key)
        if index is None:
            entries = self._entries.get(key)
            if entries is None:
                return None
            index = _build_pair_index(tuple(entries), hs)
            self._fast_cache[key] = index
        return index

    def compile_matchers(self, hs: HeaderSpace) -> int:
        """Eagerly build every pair's fast index.

        Called at path-table build/refresh time so the first report after a
        rebuild does not pay for the tag buckets and the disjointness probe;
        returns the number of path entries indexed.  Nothing is compiled:
        reports are matched on the BDD manager's own node arrays.
        """
        compiled = 0
        for inport, outport in list(self._entries):
            index = self.fast_index(inport, outport, hs)
            if index is not None:
                compiled += len(index.entries)
        return compiled

    def pairs(self) -> List[Tuple[PortRef, PortRef]]:
        """Every indexed (inport, outport) pair."""
        return list(self._entries)

    def all_entries(self) -> Iterator[Tuple[PortRef, PortRef, PathEntry]]:
        """Iterate (inport, outport, entry) over the whole table."""
        for (inport, outport), entries in self._entries.items():
            for entry in entries:
                yield inport, outport, entry

    def remove_empty(self, hs: HeaderSpace) -> int:
        """Drop entries whose header set became empty; returns removals."""
        removed = 0
        for key in list(self._entries):
            entries = [e for e in self._entries[key] if e.headers != hs.empty]
            dropped = len(self._entries[key]) - len(entries)
            if dropped:
                removed += dropped
                self.note_dirty(*key)
            if entries:
                self._entries[key] = entries
            else:
                del self._entries[key]
        if removed:
            self.version += 1
        return removed

    def num_paths(self) -> int:
        """Total number of paths across all pairs."""
        return sum(len(entries) for entries in self._entries.values())

    def paths_per_pair(self) -> List[int]:
        """Path counts per (inport, outport) pair — the Figure 6 data."""
        return [len(entries) for entries in self._entries.values()]

    def stats(self) -> PathTableStats:
        """The Table 2 row for this table.

        Memoized per (version, build time): metrics callbacks scrape this on
        every /metrics hit, and without the memo each scrape re-walked every
        entry of the table.
        """
        cache_key = (self.version, self.build_time_s)
        cached = self._stats_cache
        if cached is not None and cached[0] == cache_key:
            return cached[1]
        num_paths = self.num_paths()
        total_hops = sum(
            entry.path_length() for _, _, entry in self.all_entries()
        )
        result = PathTableStats(
            num_pairs=len(self._entries),
            num_paths=num_paths,
            avg_path_length=(total_hops / num_paths) if num_paths else 0.0,
            build_time_s=self.build_time_s,
        )
        self._stats_cache = (cache_key, result)
        return result

    def __len__(self) -> int:
        return len(self._entries)

    def dump(
        self,
        hs: Optional[HeaderSpace] = None,
        limit: Optional[int] = None,
    ) -> str:
        """Human-readable rendering of the table (debugging/operator view).

        With a :class:`HeaderSpace`, each entry also shows one sample header
        from its set.  ``limit`` caps the number of printed entries.
        """
        lines = [f"path table: {self.stats()}"]
        printed = 0
        for inport, outport in sorted(self._entries):
            for entry in self._entries[(inport, outport)]:
                if limit is not None and printed >= limit:
                    lines.append(f"  ... ({self.num_paths() - printed} more)")
                    return "\n".join(lines)
                sample = ""
                if hs is not None:
                    header = hs.sample_header(entry.headers)
                    if header is not None:
                        from ..netmodel.packet import Header

                        sample = f"  e.g. {Header(**header)}"
                lines.append(f"  {inport} -> {outport}: {entry}{sample}")
                printed += 1
        return "\n".join(lines)


class PathTableBuilder:
    """Algorithm 2: exhaustive symbolic traversal from every edge port."""

    def __init__(
        self,
        topo: Topology,
        hs: HeaderSpace,
        scheme: Optional[BloomTagScheme] = None,
        provider: Optional[PredicateProvider] = None,
        max_path_length: Optional[int] = None,
        record_reach: bool = False,
        entry_ports: Optional[List[PortRef]] = None,
    ) -> None:
        self.topo = topo
        self.hs = hs
        self.scheme = scheme or BloomTagScheme()
        self.provider = provider or SnapshotProvider(topo, hs)
        self.max_path_length = max_path_length or topo.diameter_bound()
        self.record_reach = record_reach
        self.reach_index: Dict[str, List[ReachRecord]] = {}
        self._entry_ports = entry_ports

    def entry_ports(self) -> List[PortRef]:
        """Ports from which header sets are injected (all edge ports)."""
        if self._entry_ports is not None:
            return list(self._entry_ports)
        return self.topo.edge_ports()

    def build(self) -> PathTable:
        """Run the traversal from every entry port and assemble the table."""
        table = PathTable()
        self.reach_index = {}
        started = time.perf_counter()
        terminal = functools.partial(self._add_entry, table)
        for inport in self.entry_ports():
            # Inject the all-match header set at the entry port.
            self._traverse(
                terminal,
                inport=inport,
                current=inport,
                headers=self.hs.all_match,
                transformed=self.hs.all_match,
                chain=(),
                hops=(),
                tag=self.scheme.empty_tag,
                visited=frozenset(),
            )
        table.build_time_s = time.perf_counter() - started
        return table

    def _actions_at(self, switch_id: str, in_port: int) -> List[TransferAction]:
        """Transfer slices for one ingress, from whichever API the provider has."""
        getter = getattr(self.provider, "transfer_actions", None)
        if getter is not None:
            return getter(switch_id, in_port)
        transfer = self.provider.transfer_map(switch_id, in_port)
        return [
            TransferAction(out_port, transfer[out_port], ())
            for out_port in sorted(transfer)
        ]

    # -- Algorithm 2 (with the header-rewrite extension) ---------------------

    def _traverse(
        self,
        terminal: Callable[..., None],
        inport: PortRef,
        current: PortRef,
        headers: int,
        transformed: int,
        chain: Tuple[Tuple[str, int], ...],
        hops: Tuple[Hop, ...],
        tag: int,
        visited: frozenset,
    ) -> None:
        """One recursive step: arrive at ``current`` and split across it.

        ``headers`` is the entry-relative set; ``transformed`` its image
        through the rewrite ``chain`` accumulated so far — the invariant
        ``transformed == image(headers, chain)`` is maintained using
        ``image(A ∩ t⁻¹(B)) == image(A) ∩ B``.  ``terminal`` receives every
        slice that leaves at an edge port or ``⊥``.
        """
        if current in visited:
            return  # loop cut (Section 6.1): port revisited on this path
        if len(hops) >= self.max_path_length:
            return  # TTL bound: longer paths cannot be verified anyway
        if self.record_reach:
            self.reach_index.setdefault(current.switch, []).append(
                ReachRecord(
                    inport=inport,
                    switch=current.switch,
                    in_port=current.port,
                    headers=headers,
                    hops=hops,
                    tag=tag,
                )
            )
        actions = self._actions_at(current.switch, current.port)
        self._split(
            terminal, inport, current, actions, headers, transformed, chain,
            hops, tag, visited | {current},
        )

    def _split(
        self,
        terminal: Callable[..., None],
        inport: PortRef,
        current: PortRef,
        actions: List[TransferAction],
        headers: int,
        transformed: int,
        chain: Tuple[Tuple[str, int], ...],
        hops: Tuple[Hop, ...],
        tag: int,
        visited: frozenset,
    ) -> None:
        """Push a header set that arrived at ``current`` through ``actions``.

        Each slice either ends at an edge port or ``⊥`` (handed to
        ``terminal``) or continues to the peer switch.  The incremental
        updater re-enters here with the slices a rule change gained at a
        recorded arrival, so there is one copy of Algorithm 2's step.
        """
        bdd = self.hs.bdd
        for action in actions:
            t_next = bdd.and_(transformed, action.pred)
            if t_next == self.hs.empty:
                continue
            if chain:
                h_next = bdd.and_(
                    headers, self.hs.preimage_sets(action.pred, chain)
                )
            else:
                h_next = t_next
            if action.rewrites:
                t_next = self.hs.apply_sets(t_next, action.rewrites)
                chain_next = chain + tuple(action.rewrites)
            else:
                chain_next = chain
            hop = Hop(current.port, current.switch, action.out_port)
            hops_next = hops + (hop,)
            tag_next = self.scheme.add(tag, hop)
            egress = PortRef(current.switch, action.out_port)
            peer = (
                None
                if action.out_port == DROP_PORT
                else self.topo.link(egress)
            )
            terminal_slice = (
                action.out_port == DROP_PORT
                or self.topo.is_edge_port(egress)
                or peer is None  # defensive: unwired non-edge port
            )
            if terminal_slice:
                terminal(
                    inport, egress, h_next, t_next, chain_next, hops_next,
                    tag_next,
                )
                continue
            self._traverse(
                terminal, inport, peer, h_next, t_next, chain_next,
                hops_next, tag_next, visited,
            )

    def _add_entry(
        self,
        table: PathTable,
        inport: PortRef,
        egress: PortRef,
        headers: int,
        transformed: int,
        chain: Tuple[Tuple[str, int], ...],
        hops: Tuple[Hop, ...],
        tag: int,
    ) -> None:
        table.add(
            inport,
            egress,
            PathEntry(
                headers=headers,
                hops=hops,
                tag=tag,
                exit_headers=transformed if chain else None,
                rewrites=chain,
            ),
        )

    # -- control-plane path query (used by the localizer) --------------------

    def expected_path(
        self,
        entry: PortRef,
        header: Dict[str, int],
        selected: Optional[List[int]] = None,
    ) -> List[Hop]:
        """``GetPath(inport, header)``: the concrete path the control plane
        prescribes for one header injected at ``entry``.

        Walks transfer actions picking the slice containing the current
        header (applying any rewrites to it along the way), until an edge
        port, ``⊥``, a revisited port, or the TTL bound.

        ``selected``, when given, collects the predicate of every slice the
        walk chose.  The slices at an ingress partition the header space,
        so any header inside all collected predicates takes this same walk.
        That stops holding once a rewrite changes the header the later
        predicates are tested against: such a walk (or one no slice
        claimed) collects the empty set instead, which no header is in.
        """
        hops: List[Hop] = []
        current = entry
        visited = set()
        hs = self.hs
        holds = hs.bdd.evaluate_value
        live_header = header
        value = hs.header_value(header)
        while len(hops) < self.max_path_length and current not in visited:
            visited.add(current)
            chosen: Optional[TransferAction] = None
            for action in self._actions_at(current.switch, current.port):
                if holds(action.pred, value):
                    chosen = action
                    break
            if chosen is None:  # defensive: transfer slices partition space
                if selected is not None:
                    selected.append(hs.empty)
                break
            if selected is not None:
                selected.append(hs.empty if chosen.rewrites else chosen.pred)
            if chosen.rewrites:
                live_header = hs.rewrite_header(live_header, chosen.rewrites)
                value = hs.header_value(live_header)
            hops.append(Hop(current.port, current.switch, chosen.out_port))
            egress = PortRef(current.switch, chosen.out_port)
            if chosen.out_port == DROP_PORT or self.topo.is_edge_port(egress):
                break
            peer = self.topo.link(egress)
            if peer is None:
                break
            current = peer
        return hops
