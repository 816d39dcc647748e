"""Incremental path-table update — Section 4.4 of the paper.

Rebuilding the whole path table on every FlowMod cannot keep up with SDN
update rates, so the paper maintains it incrementally for the common case:
IP-prefix forwarding rules (no ACLs; modification = delete + add).

**Rule forest -> tree.**  Per switch, prefix rules are organised by prefix
containment.  A virtual drop rule ``0.0.0.0/0`` (zero-length prefix) turns
the forest into a single tree, which uniformly handles table misses.  By
longest-prefix match each rule ``R`` actually matches::

    R.match = R.prefix \\ (union of R's children's prefixes)

**Port predicate update.**  Adding rule ``R_i -> x`` under parent
``R_j -> y`` moves exactly ``Δ = R_i.match`` from port ``y`` to ``x``::

    P_x <- P_x ∨ Δ        P_y <- P_y ∧ ¬Δ

Deletion is the mirror image.

**Path entry update.**  The header slice ``Δ`` used to flow out of ``y``
and now flows out of ``x``:

1. every path entry (and downstream reach record) whose path traverses the
   hop ``<*, S, y>`` loses ``Δ`` from its header set (entries that become
   empty are deleted);
2. every header set that *reaches* ``S`` (the builder's reach records)
   contributes ``h ∧ Δ``, which is re-traversed out of port ``x`` —
   merging into existing path entries with the same hop sequence, creating
   new entries (and new reach records) otherwise.

The result is bit-identical to a full rebuild (property-tested in
``tests/core/test_incremental.py``).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bdd.headerspace import HeaderSpace, format_ipv4, parse_prefix
from ..netmodel.hops import Hop
from ..netmodel.rules import DROP_PORT
from ..netmodel.topology import PortRef, Topology
from .bloom import BloomTagScheme
from .pathtable import PathEntry, PathTable, PathTableBuilder, ReachRecord

__all__ = [
    "PrefixRuleTree",
    "RuleDelta",
    "LpmProvider",
    "IncrementalPathTable",
    "UpdateFlushStats",
]


#: Process-wide change-log epoch allocator, mirroring the path table's
#: dirty-epoch scheme: epochs are unique across all updaters so a cursor
#: minted against one updater can never validate against another.
_CHANGE_EPOCHS = itertools.count(1)


@dataclass
class UpdateFlushStats:
    """What one coalesced flush did (feeds the veridp_update_* metrics)."""

    events: int  # staged rule events covered by this flush
    dirty_switches: int  # switches whose predicates net-changed
    dirty_ports: int  # (switch, port) predicates with a net delta
    elapsed_s: float


@dataclass
class _Node:
    """One rule in the prefix tree."""

    prefix: Tuple[int, int]  # (value, plen)
    out_port: int
    children: List["_Node"] = field(default_factory=list)

    def contains(self, other: Tuple[int, int]) -> bool:
        """Does this node's prefix contain ``other`` (strictly or equally)?"""
        value, plen = self.prefix
        o_value, o_plen = other
        if o_plen < plen:
            return False
        if plen == 0:
            return True
        shift = 32 - plen
        return (o_value >> shift) == (value >> shift)


@dataclass
class RuleDelta:
    """The effect of one mutation: ``Δ`` moved between two ports.

    ``in_port`` restricts the move to paths entering the switch on that
    ingress (used by inbound-ACL updates, which are per-port); ``None``
    means the move applies regardless of ingress (prefix-rule updates).
    """

    switch_id: str
    delta: int  # BDD of the moved header set
    from_port: int
    to_port: int
    in_port: Optional[int] = None


class PrefixRuleTree:
    """Per-switch destination-prefix rules as a containment tree.

    The root is the virtual drop rule ``0.0.0.0/0``; real rules with the
    same zero-length prefix are rejected, as are duplicate prefixes (the
    paper's model has one rule per prefix — priority *is* prefix length).
    """

    def __init__(self, hs: HeaderSpace, switch_id: str) -> None:
        self.hs = hs
        self.switch_id = switch_id
        self.root = _Node(prefix=(0, 0), out_port=DROP_PORT)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # -- structural helpers ------------------------------------------------

    def _prefix_bdd(self, prefix: Tuple[int, int]) -> int:
        value, plen = prefix
        return self.hs.prefix("dst_ip", value, plen)

    def _node_match(self, node: _Node) -> int:
        """``R.match = R.prefix \\ (∨ children prefixes)`` as a BDD."""
        bdd = self.hs.bdd
        match = self._prefix_bdd(node.prefix)
        for child in node.children:
            match = bdd.diff(match, self._prefix_bdd(child.prefix))
        return match

    def _find_parent(self, prefix: Tuple[int, int]) -> _Node:
        """Deepest existing node strictly containing ``prefix``."""
        node = self.root
        while True:
            nxt = None
            for child in node.children:
                if child.prefix == prefix:
                    raise ValueError(
                        f"duplicate prefix {prefix} on {self.switch_id}"
                    )
                if child.contains(prefix):
                    nxt = child
                    break
            if nxt is None:
                return node
            node = nxt

    # -- mutations -------------------------------------------------------------

    def add(self, prefix: Tuple[int, int], out_port: int) -> RuleDelta:
        """Insert a rule; returns the ``Δ`` moved from the parent's port."""
        if prefix == (0, 0):
            raise ValueError("the zero prefix is reserved for the virtual drop rule")
        parent = self._find_parent(prefix)
        node = _Node(prefix=prefix, out_port=out_port)
        # Children of the parent inside the new prefix move under the new node.
        stolen = [c for c in parent.children if node.contains(c.prefix)]
        for child in stolen:
            parent.children.remove(child)
        node.children = stolen
        parent.children.append(node)
        self._count += 1
        return RuleDelta(
            switch_id=self.switch_id,
            delta=self._node_match(node),
            from_port=parent.out_port,
            to_port=out_port,
        )

    def delete(self, prefix: Tuple[int, int]) -> RuleDelta:
        """Remove a rule; returns the ``Δ`` returned to the parent's port."""
        if prefix == (0, 0):
            raise ValueError("cannot delete the virtual drop rule")
        parent = self.root
        node = None
        while node is None:
            for child in parent.children:
                if child.prefix == prefix:
                    node = child
                    break
                if child.contains(prefix):
                    parent = child
                    break
            else:
                raise KeyError(f"no rule with prefix {prefix} on {self.switch_id}")
        delta = self._node_match(node)
        parent.children.remove(node)
        parent.children.extend(node.children)
        self._count -= 1
        return RuleDelta(
            switch_id=self.switch_id,
            delta=delta,
            from_port=node.out_port,
            to_port=parent.out_port,
        )

    # -- enumeration (persistence) --------------------------------------------

    def rules(self) -> List[Tuple[Tuple[int, int], int]]:
        """Every installed ``(prefix, out_port)``, parents before children.

        The containment tree is canonical (insertion-order independent), so
        re-adding these to an empty tree reproduces it exactly — the form
        snapshots persist.
        """
        out: List[Tuple[Tuple[int, int], int]] = []
        stack = list(reversed(self.root.children))
        while stack:
            node = stack.pop()
            out.append((node.prefix, node.out_port))
            stack.extend(reversed(node.children))
        return out

    # -- full recomputation (for cross-checking) ------------------------------

    def port_predicates(self) -> Dict[int, int]:
        """``P_x`` for every port with rules, plus ``DROP_PORT``, from scratch."""
        bdd = self.hs.bdd
        preds: Dict[int, int] = {DROP_PORT: self.hs.empty}
        stack = [self.root]
        while stack:
            node = stack.pop()
            match = self._node_match(node)
            preds[node.out_port] = bdd.or_(
                preds.get(node.out_port, self.hs.empty), match
            )
            stack.extend(node.children)
        return preds


class LpmProvider:
    """A :class:`~repro.core.pathtable.PredicateProvider` over prefix trees.

    Maintains per-switch port predicates *incrementally*: each tree mutation
    patches exactly two predicates with the returned ``Δ``.  Optional
    per-ingress deny sets model inbound ACLs (the paper's "the incremental
    update can also be performed with ACL rules"): the transfer map for an
    ingress subtracts its denied headers from every forwarding predicate
    and adds them to the drop predicate.
    """

    def __init__(self, topo: Topology, hs: HeaderSpace) -> None:
        self.topo = topo
        self.hs = hs
        self.trees: Dict[str, PrefixRuleTree] = {}
        self._preds: Dict[str, Dict[int, int]] = {}
        # switch -> in_port -> list of deny-entry BDDs (OR = denied set)
        self._in_deny: Dict[str, Dict[int, List[int]]] = {}
        for switch_id, info in topo.switches.items():
            self.trees[switch_id] = PrefixRuleTree(hs, switch_id)
            preds = {port: hs.empty for port in info.ports}
            preds[DROP_PORT] = hs.all_match  # empty tree drops everything
            self._preds[switch_id] = preds
            self._in_deny[switch_id] = {}

    def base_port_predicates(self, switch_id: str) -> Dict[int, int]:
        """The pre-ACL (pure LPM) per-port predicates."""
        return self._preds[switch_id]

    def inbound_denied(self, switch_id: str, in_port: int) -> int:
        """The headers an ingress port's ACL currently denies (a BDD)."""
        entries = self._in_deny[switch_id].get(in_port, [])
        return self.hs.bdd.or_many(entries)

    def transfer_map(self, switch_id: str, in_port: int) -> Dict[int, int]:
        """Per-port predicates for one ingress: LPM minus the ingress denies."""
        base = self._preds[switch_id]
        denied = self.inbound_denied(switch_id, in_port)
        if denied == self.hs.empty:
            return base
        bdd = self.hs.bdd
        derived = {
            port: (
                bdd.or_(pred, denied)
                if port == DROP_PORT
                else bdd.diff(pred, denied)
            )
            for port, pred in base.items()
        }
        return derived

    def add_inbound_deny(self, switch_id: str, in_port: int, pred: int) -> int:
        """Add a deny entry; returns the *newly* denied header set ``Δ``."""
        old = self.inbound_denied(switch_id, in_port)
        self._in_deny[switch_id].setdefault(in_port, []).append(pred)
        new = self.hs.bdd.or_(old, pred)
        return self.hs.bdd.diff(new, old)

    def remove_inbound_deny(self, switch_id: str, in_port: int, pred: int) -> int:
        """Remove a deny entry; returns the *re-allowed* header set ``Δ``."""
        entries = self._in_deny[switch_id].get(in_port, [])
        if pred not in entries:
            raise KeyError(
                f"no such deny entry on {switch_id} port {in_port}"
            )
        old = self.inbound_denied(switch_id, in_port)
        entries.remove(pred)
        new = self.inbound_denied(switch_id, in_port)
        return self.hs.bdd.diff(old, new)

    def iter_rules(self) -> List[Tuple[str, str, int]]:
        """Every installed rule as ``(switch, "a.b.c.d/len", out_port)``.

        Deterministic (switches sorted, tree order within a switch); the
        durable form snapshots record and recovery re-applies.
        """
        out: List[Tuple[str, str, int]] = []
        for switch_id in sorted(self.trees):
            for (value, plen), port in self.trees[switch_id].rules():
                out.append((switch_id, f"{format_ipv4(value)}/{plen}", port))
        return out

    @property
    def has_inbound_denies(self) -> bool:
        """True when any ingress ACL deny is installed (not persisted)."""
        return any(
            entries
            for per_port in self._in_deny.values()
            for entries in per_port.values()
        )

    def add_rule(self, switch_id: str, prefix: str, out_port: int) -> RuleDelta:
        """Insert ``prefix -> out_port`` and patch the port predicates."""
        delta = self.trees[switch_id].add(parse_prefix(prefix), out_port)
        self._apply(delta)
        return delta

    def delete_rule(self, switch_id: str, prefix: str) -> RuleDelta:
        """Remove the rule for ``prefix`` and patch the port predicates."""
        delta = self.trees[switch_id].delete(parse_prefix(prefix))
        self._apply(delta)
        return delta

    def _apply(self, delta: RuleDelta) -> None:
        bdd = self.hs.bdd
        preds = self._preds[delta.switch_id]
        preds.setdefault(delta.from_port, self.hs.empty)
        preds.setdefault(delta.to_port, self.hs.empty)
        preds[delta.from_port] = bdd.diff(preds[delta.from_port], delta.delta)
        preds[delta.to_port] = bdd.or_(preds[delta.to_port], delta.delta)


class IncrementalPathTable:
    """A path table kept synchronised with prefix-rule updates.

    Wraps a builder (with reach recording) and an :class:`LpmProvider`;
    :meth:`add_rule`/:meth:`delete_rule` apply Section 4.4's two-phase
    update and report the elapsed wall time (the Figure 14 metric).
    """

    def __init__(
        self,
        topo: Topology,
        hs: HeaderSpace,
        scheme: Optional[BloomTagScheme] = None,
        provider: Optional[LpmProvider] = None,
        max_path_length: Optional[int] = None,
    ) -> None:
        self.topo = topo
        self.hs = hs
        self.scheme = scheme or BloomTagScheme()
        self.provider = provider or LpmProvider(topo, hs)
        self.builder = PathTableBuilder(
            topo,
            hs,
            scheme=self.scheme,
            provider=self.provider,
            max_path_length=max_path_length,
            record_reach=True,
        )
        self.table: PathTable = self.builder.build()
        self.last_update_s: float = 0.0
        self._pending_events: int = 0
        self._staged_preds: Dict[str, Dict[int, int]] = {}
        self.last_flush: Optional[UpdateFlushStats] = None
        self._change_feed: List[int] = []
        self._change_log: List[int] = []
        self._change_epoch: int = next(_CHANGE_EPOCHS)

    @classmethod
    def restore(
        cls,
        topo: Topology,
        hs: HeaderSpace,
        table: PathTable,
        reach_index: Dict[str, List[ReachRecord]],
        scheme: Optional[BloomTagScheme] = None,
        provider: Optional[LpmProvider] = None,
        max_path_length: Optional[int] = None,
    ) -> "IncrementalPathTable":
        """Adopt an already-materialised table instead of rebuilding.

        The crash-recovery path (:mod:`repro.persist.recovery`) deserializes
        the path table and reachability index from a snapshot; running
        Algorithm 2 again would defeat the point of snapshotting.  The
        caller guarantees ``table``/``reach_index`` were produced against
        ``provider``'s current predicates and ``hs``'s node table.
        """
        inst = cls.__new__(cls)
        inst.topo = topo
        inst.hs = hs
        inst.scheme = scheme or BloomTagScheme()
        inst.provider = provider or LpmProvider(topo, hs)
        inst.builder = PathTableBuilder(
            topo,
            hs,
            scheme=inst.scheme,
            provider=inst.provider,
            max_path_length=max_path_length,
            record_reach=True,
        )
        inst.builder.reach_index = reach_index
        inst.table = table
        inst.last_update_s = 0.0
        inst._pending_events = 0
        inst._staged_preds = {}
        inst.last_flush = None
        inst._change_feed = []
        inst._change_log = []
        inst._change_epoch = next(_CHANGE_EPOCHS)
        return inst

    # -- public update API ----------------------------------------------------

    def add_rule(self, switch_id: str, prefix: str, out_port: int) -> float:
        """Install a prefix rule and update the path table incrementally.

        Returns the update's wall-clock seconds.
        """
        if self._pending_events:
            self.flush_updates()
        started = time.perf_counter()
        delta = self.provider.add_rule(switch_id, prefix, out_port)
        self._apply_move(delta)
        self._record_change(delta)
        self.last_update_s = time.perf_counter() - started
        return self.last_update_s

    def delete_rule(self, switch_id: str, prefix: str) -> float:
        """Remove a prefix rule and update the path table incrementally."""
        if self._pending_events:
            self.flush_updates()
        started = time.perf_counter()
        delta = self.provider.delete_rule(switch_id, prefix)
        self._apply_move(delta)
        self._record_change(delta)
        self.last_update_s = time.perf_counter() - started
        return self.last_update_s

    # -- coalesced (batched) updates ------------------------------------------

    @property
    def pending_updates(self) -> int:
        """Staged rule events not yet folded into the path table."""
        return self._pending_events

    def stage_add_rule(self, switch_id: str, prefix: str, out_port: int) -> None:
        """Install a prefix rule, deferring table recompute to the flush.

        The provider (prefix tree + port predicates) is mutated immediately
        — tree surgery is sequential and cheap — but the table-wide
        subtract/extend phases, the per-event O(paths) cost, run once per
        :meth:`flush_updates` over the batch's *net* predicate deltas.
        Verification between stage and flush sees the pre-batch table (the
        coalescing window's staleness tradeoff; the WAL is written at stage
        time, so durability is unaffected).
        """
        self._snapshot_preds(switch_id)
        self.provider.add_rule(switch_id, prefix, out_port)
        self._pending_events += 1

    def stage_delete_rule(self, switch_id: str, prefix: str) -> None:
        """Remove a prefix rule, deferring table recompute to the flush."""
        self._snapshot_preds(switch_id)
        self.provider.delete_rule(switch_id, prefix)
        self._pending_events += 1

    def _snapshot_preds(self, switch_id: str) -> None:
        """Capture a switch's pre-batch predicates at first touch."""
        if switch_id not in self._staged_preds:
            self._staged_preds[switch_id] = dict(
                self.provider.base_port_predicates(switch_id)
            )

    # -- change feed -----------------------------------------------------------

    #: Feed slots kept before old change predicates are OR-collapsed; the
    #: feed is for an (optional) single consumer, so this only bounds the
    #: memory of a run that never drains it.
    CHANGE_FEED_CAP = 64

    #: Cursor-log bound (multi-consumer API).  Past this the log resets and
    #: the epoch bumps — every cursor holder then gets ``None`` from
    #: :meth:`changes_since` and must treat all header space as changed,
    #: exactly like a dirty-pair journal overflow.
    CHANGE_LOG_CAP = 256

    def _record_change(self, delta) -> None:
        if delta.delta == self.hs.empty or delta.from_port == delta.to_port:
            return
        self._push_change(delta.delta)

    def _push_change(self, predicate: int) -> None:
        self._change_feed.append(predicate)
        if len(self._change_feed) > self.CHANGE_FEED_CAP:
            self._change_feed = [self.hs.bdd.or_many(self._change_feed)]
        self._change_log.append(predicate)
        if len(self._change_log) > self.CHANGE_LOG_CAP:
            self._change_log.clear()
            self._change_epoch = next(_CHANGE_EPOCHS)

    # -- cursor-based change log (multi-consumer) ------------------------------

    def change_token(self) -> Tuple[int, int]:
        """Opaque cursor over the change log, positioned at "now".

        Unlike :meth:`drain_change_feed` (single consumer, destructive),
        any number of consumers can hold independent cursors and call
        :meth:`changes_since`; the isolation verifier and the prober can
        therefore both ride rule churn without stealing each other's
        updates.
        """
        return (self._change_epoch, len(self._change_log))

    def changes_since(
        self, token: Optional[Tuple[int, int]]
    ) -> Tuple[Tuple[int, int], Optional[List[int]]]:
        """Changed-header predicates since ``token`` plus a fresh cursor.

        Returns ``(new_token, predicates)`` where ``predicates`` is ``None``
        when the log overflowed since the token was minted (or the caller
        never synced): the consumer must then treat the whole header space
        as potentially changed.  Mirrors
        :meth:`repro.core.pathtable.PathTable.dirty_since`.
        """
        current = (self._change_epoch, len(self._change_log))
        if token is None or token[0] != self._change_epoch:
            return current, None
        return current, list(self._change_log[token[1] :])

    def drain_change_feed(self) -> List[int]:
        """The header-set predicates every update since the last drain moved.

        Each element is the union, over one update (or one coalesced
        flush), of the slices that changed egress somewhere — ``lost ∪
        gained`` across the touched switches.  The dirty-pair journal says
        *which pairs* to re-examine; this feed says *which headers* within
        them, letting the prober aim a witness inside the changed slice
        even when hop-equivalence merged it into a wider entry.  Single
        consumer: draining empties the feed.
        """
        feed, self._change_feed = self._change_feed, []
        return feed

    def flush_updates(self) -> UpdateFlushStats:
        """Fold every staged event into the path table in one pass.

        Computes the batch's net per-(switch, port) predicate change —
        ``lost = P_old ∧ ¬P_new`` and ``gained = P_new ∧ ¬P_old`` against
        the predicates captured when each switch was first staged — then
        runs *one* subtract scan over the table (each entry loses the union
        of the lost slices along its hops) and one extend pass per dirty
        switch.  Events that cancel out within the batch (add then delete)
        produce empty deltas and cost nothing.  The result is BDD-identical
        to applying the events one at a time (property-tested).
        """
        started = time.perf_counter()
        events = self._pending_events
        staged = self._staged_preds
        self._pending_events = 0
        self._staged_preds = {}
        empty = self.hs.empty
        bdd = self.hs.bdd
        minus: Dict[str, Dict[int, int]] = {}
        plus: Dict[str, Dict[int, int]] = {}
        changed_terms: List[int] = []
        for switch_id, old_preds in staged.items():
            new_preds = self.provider.base_port_predicates(switch_id)
            lost_ports: Dict[int, int] = {}
            gained_ports: Dict[int, int] = {}
            for port in old_preds.keys() | new_preds.keys():
                old = old_preds.get(port, empty)
                new = new_preds.get(port, empty)
                if old == new:
                    continue
                lost = bdd.diff(old, new)
                gained = bdd.diff(new, old)
                if lost != empty:
                    lost_ports[port] = lost
                    changed_terms.append(lost)
                if gained != empty:
                    gained_ports[port] = gained
                    changed_terms.append(gained)
            if lost_ports:
                minus[switch_id] = lost_ports
            if gained_ports:
                plus[switch_id] = gained_ports
        dirty_ports = sum(len(v) for v in minus.values()) + sum(
            len(v) for v in plus.values()
        )
        if minus or plus:
            self._coalesced_subtract(minus)
            self._coalesced_extend(plus)
            self.table.touch(tracked=True)
        if changed_terms:
            self._push_change(bdd.or_many(changed_terms))
        elapsed = time.perf_counter() - started
        self.last_update_s = elapsed
        stats = UpdateFlushStats(
            events=events,
            dirty_switches=len(staged),
            dirty_ports=dirty_ports,
            elapsed_s=elapsed,
        )
        self.last_flush = stats
        return stats

    def _coalesced_subtract(self, minus: Dict[str, Dict[int, int]]) -> None:
        """One table scan removing every lost slice along each path."""
        bdd = self.hs.bdd
        empty = self.hs.empty

        def removed_for(hops: Tuple[Hop, ...]) -> int:
            terms = []
            for hop in hops:
                ports = minus.get(hop.switch)
                if ports is not None:
                    lost = ports.get(hop.out_port)
                    if lost is not None:
                        terms.append(lost)
            if not terms:
                return empty
            return bdd.or_many(terms)

        for inport, outport, entry in list(self.table.all_entries()):
            lost = removed_for(entry.hops)
            if lost == empty:
                continue
            trimmed = bdd.diff(entry.headers, lost)
            if trimmed != entry.headers:
                entry.headers = trimmed
                self.table.note_dirty(inport, outport)
        self.table.remove_empty(self.hs)

        for records in self.builder.reach_index.values():
            kept = []
            for record in records:
                lost = removed_for(record.hops)
                if lost != empty:
                    record.headers = bdd.diff(record.headers, lost)
                if record.headers != empty:
                    kept.append(record)
            records[:] = kept

    def _coalesced_extend(self, plus: Dict[str, Dict[int, int]]) -> None:
        """Re-traverse each gained slice from the records reaching its switch."""
        bdd = self.hs.bdd
        empty = self.hs.empty
        for switch_id in sorted(plus):
            gained_ports = plus[switch_id]
            for record in list(self.builder.reach_index.get(switch_id, ())):
                transfer: Optional[Dict[int, int]] = None
                for to_port in sorted(gained_ports):
                    h = bdd.and_(record.headers, gained_ports[to_port])
                    if h == empty:
                        continue
                    if transfer is None:
                        transfer = self.provider.transfer_map(
                            switch_id, record.in_port
                        )
                    h = bdd.and_(h, transfer.get(to_port, empty))
                    if h == empty:
                        continue
                    self._extend_slice(record, to_port, h)

    def add_inbound_deny(self, switch_id: str, in_port: int, pred: int) -> float:
        """Install an inbound-ACL deny entry and update incrementally.

        ``pred`` is the denied header set as a BDD (use
        ``Match.to_bdd(hs)`` to build one from a match).  Per affected
        egress port ``y``, the slice ``Δ ∧ P_y`` moves ``y -> ⊥`` for paths
        entering the switch at ``in_port``.
        """
        if self._pending_events:
            self.flush_updates()
        started = time.perf_counter()
        delta = self.provider.add_inbound_deny(switch_id, in_port, pred)
        self._apply_acl_delta(switch_id, in_port, delta, deny=True)
        self.last_update_s = time.perf_counter() - started
        return self.last_update_s

    def remove_inbound_deny(self, switch_id: str, in_port: int, pred: int) -> float:
        """Remove an inbound-ACL deny entry and update incrementally."""
        if self._pending_events:
            self.flush_updates()
        started = time.perf_counter()
        delta = self.provider.remove_inbound_deny(switch_id, in_port, pred)
        self._apply_acl_delta(switch_id, in_port, delta, deny=False)
        self.last_update_s = time.perf_counter() - started
        return self.last_update_s

    def _apply_acl_delta(
        self, switch_id: str, in_port: int, delta: int, deny: bool
    ) -> None:
        if delta == self.hs.empty:
            return
        bdd = self.hs.bdd
        base = self.provider.base_port_predicates(switch_id)
        for port in sorted(base):
            if port == DROP_PORT:
                continue  # ⊥-to-⊥ is a no-op
            slice_ = bdd.and_(delta, base[port])
            if slice_ == self.hs.empty:
                continue
            from_port, to_port = (port, DROP_PORT) if deny else (DROP_PORT, port)
            self._apply_move(
                RuleDelta(
                    switch_id=switch_id,
                    delta=slice_,
                    from_port=from_port,
                    to_port=to_port,
                    in_port=in_port,
                )
            )

    # -- Section 4.4's two phases ---------------------------------------------

    def _apply_move(self, delta: RuleDelta) -> None:
        if delta.delta == self.hs.empty or delta.from_port == delta.to_port:
            return
        self._subtract_phase(delta)
        self._extend_phase(delta)
        # Both phases mutate entry header sets in place (invisible to the
        # table's own mutators), so bump the version for the pair
        # fast-indexes and the server's failure epoch; matchers read the
        # entry's live header set, so they need nothing.  Every mutated
        # pair was noted in the dirty journal, so delta consumers need not
        # treat the bump as a full invalidation.
        self.table.touch(tracked=True)

    def _subtract_phase(self, delta: RuleDelta) -> None:
        """Remove ``Δ`` from paths (and reach records) through ``<S, from>``."""
        bdd = self.hs.bdd
        switch_id, from_port = delta.switch_id, delta.from_port
        acl_in_port = delta.in_port

        def diverts(hops: Tuple[Hop, ...]) -> bool:
            return any(
                hop.switch == switch_id
                and hop.out_port == from_port
                and (acl_in_port is None or hop.in_port == acl_in_port)
                for hop in hops
            )

        for inport, outport, entry in list(self.table.all_entries()):
            if diverts(entry.hops):
                trimmed = bdd.diff(entry.headers, delta.delta)
                if trimmed != entry.headers:
                    entry.headers = trimmed
                    self.table.note_dirty(inport, outport)
        self.table.remove_empty(self.hs)

        for records in self.builder.reach_index.values():
            kept = []
            for record in records:
                if diverts(record.hops):
                    record.headers = bdd.diff(record.headers, delta.delta)
                if record.headers != self.hs.empty:
                    kept.append(record)
            records[:] = kept

    def _extend_phase(self, delta: RuleDelta) -> None:
        """Re-traverse ``h ∧ Δ`` out of the new port for every reach record."""
        bdd = self.hs.bdd
        switch_id, to_port = delta.switch_id, delta.to_port
        records = list(self.builder.reach_index.get(switch_id, ()))
        for record in records:
            if delta.in_port is not None and record.in_port != delta.in_port:
                continue
            h = bdd.and_(record.headers, delta.delta)
            if h == self.hs.empty:
                continue
            # Respect this ingress's post-update behaviour: a slice that the
            # ingress ACL (still) denies must not be extended out of a
            # forwarding port.
            allowed = self.provider.transfer_map(switch_id, record.in_port).get(
                to_port, self.hs.empty
            )
            h = bdd.and_(h, allowed)
            if h == self.hs.empty:
                continue
            self._extend_slice(record, to_port, h)

    def _extend_slice(self, record: ReachRecord, to_port: int, headers: int) -> None:
        """Push one re-traversed slice out of ``to_port`` at the record's switch."""
        switch_id = record.switch
        hop = Hop(record.in_port, switch_id, to_port)
        hops = record.hops + (hop,)
        tag = self.scheme.add(record.tag, hop)
        egress = PortRef(switch_id, to_port)
        visited = {PortRef(h_.switch, h_.in_port) for h_ in record.hops}
        visited.add(PortRef(switch_id, record.in_port))
        if to_port == DROP_PORT or self.topo.is_edge_port(egress):
            self._merge_entry(record.inport, egress, headers, hops, tag)
            return
        peer = self.topo.link(egress)
        if peer is None:
            self._merge_entry(record.inport, egress, headers, hops, tag)
            return
        self._continue_traverse(
            record.inport, peer, headers, hops, tag, frozenset(visited)
        )

    def _continue_traverse(
        self,
        inport: PortRef,
        current: PortRef,
        headers: int,
        hops: Tuple[Hop, ...],
        tag: int,
        visited: frozenset,
    ) -> None:
        """Algorithm 2's recursion, merging into the live table."""
        if current in visited or len(hops) >= self.builder.max_path_length:
            return
        self.builder.reach_index.setdefault(current.switch, []).append(
            ReachRecord(
                inport=inport,
                switch=current.switch,
                in_port=current.port,
                headers=headers,
                hops=hops,
                tag=tag,
            )
        )
        visited = visited | {current}
        bdd = self.hs.bdd
        transfer = self.provider.transfer_map(current.switch, current.port)
        for out_port in sorted(transfer):
            h_next = bdd.and_(headers, transfer[out_port])
            if h_next == self.hs.empty:
                continue
            hop = Hop(current.port, current.switch, out_port)
            hops_next = hops + (hop,)
            tag_next = self.scheme.add(tag, hop)
            egress = PortRef(current.switch, out_port)
            if (
                out_port == DROP_PORT
                or self.topo.is_edge_port(egress)
                or self.topo.link(egress) is None
            ):
                self._merge_entry(inport, egress, h_next, hops_next, tag_next)
                continue
            self._continue_traverse(
                inport, self.topo.link(egress), h_next, hops_next, tag_next, visited
            )

    def _merge_entry(
        self,
        inport: PortRef,
        outport: PortRef,
        headers: int,
        hops: Tuple[Hop, ...],
        tag: int,
    ) -> None:
        """Union into an existing same-hops entry, or append a new one."""
        bdd = self.hs.bdd
        for entry in self.table.lookup(inport, outport):
            if entry.hops == hops:
                merged = bdd.or_(entry.headers, headers)
                if merged != entry.headers:
                    entry.headers = merged
                    self.table.note_dirty(inport, outport)
                return
        self.table.add(inport, outport, PathEntry(headers, hops, tag))
