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

**Path entry update.**  Every change — a staged batch, one rule, one
inbound-ACL deny — is one flush (:meth:`IncrementalPathTable.flush_updates`).
At a switch's first touch the updater keeps its transfer maps: the base
predicates, which every ingress with no deny forwards by, and the map of
each ingress with a deny.  The flush diffs each against the current map,
per egress port ``y``: ``lost_y = T_y ∧ ¬T'_y`` and ``gained_y = T'_y ∧
¬T_y``.  Then:

1. every path entry (and downstream reach record) whose path traverses the
   hop ``<p, S, y>`` loses ``lost_y`` of ingress ``p``'s map (entries that
   become empty are deleted);
2. every header set that *reaches* ``S`` at ``p`` (the builder's reach
   records) re-enters the builder's Algorithm 2 step with ``h ∧
   gained_y`` for each ``y`` — merging into existing path entries with
   the same hop sequence, creating new entries (and new reach records)
   otherwise.

An inbound deny is the paper's "the incremental update can also be
performed with ACL rules": it changes only its own ingress's map, so it
moves the denied slice to ``⊥`` for paths entering there and no others.
The result is bit-identical to a full rebuild (property-tested in
``tests/core/test_incremental.py`` and ``test_incremental_acl.py``).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..bdd.headerspace import HeaderSpace, format_ipv4, parse_prefix
from ..netmodel.hops import Hop
from ..netmodel.predicates import TransferAction
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
    """What one flush did (feeds the veridp_update_* metrics)."""

    events: int  # staged rule and ACL events covered by this flush
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
    """The effect of one prefix-rule mutation: ``Δ`` moved between two ports."""

    switch_id: str
    delta: int  # BDD of the moved header set
    from_port: int
    to_port: int


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

    def denied_ingresses(self, switch_id: str) -> List[int]:
        """The ingress ports of ``switch_id`` with a deny entry installed."""
        return sorted(
            in_port
            for in_port, entries in self._in_deny[switch_id].items()
            if entries
        )

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
        return any(map(self.denied_ingresses, self._in_deny))

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
    """A path table kept synchronised with prefix-rule and ACL updates.

    Wraps a builder (with reach recording) and an :class:`LpmProvider`.
    Every change is staged against the provider and folded into the table
    by :meth:`flush_updates`; :meth:`add_rule`, :meth:`delete_rule` and the
    inbound-deny calls are one-event flushes that report their wall time
    (the Figure 14 metric).
    """

    def __init__(
        self,
        topo: Topology,
        hs: HeaderSpace,
        scheme: Optional[BloomTagScheme] = None,
        provider: Optional[LpmProvider] = None,
        max_path_length: Optional[int] = None,
    ) -> None:
        self._adopt(topo, hs, scheme, provider, max_path_length)
        self.table: PathTable = self.builder.build()

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
        inst._adopt(topo, hs, scheme, provider, max_path_length)
        inst.builder.reach_index = reach_index
        inst.table = table
        return inst

    def _adopt(
        self,
        topo: Topology,
        hs: HeaderSpace,
        scheme: Optional[BloomTagScheme],
        provider: Optional[LpmProvider],
        max_path_length: Optional[int],
    ) -> None:
        """The builder and the empty update state, for both constructors."""
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
        self.last_update_s: float = 0.0
        self._pending_events: int = 0
        # switch -> ingress key -> port predicates at the switch's first
        # staged touch (the None key: the base, for ingresses with no deny).
        self._staged: Dict[str, Dict[Optional[int], Dict[int, int]]] = {}
        self.last_flush: Optional[UpdateFlushStats] = None
        self._change_feed: List[int] = []
        self._change_log: List[int] = []
        self._change_epoch: int = next(_CHANGE_EPOCHS)

    # -- public update API ----------------------------------------------------

    def add_rule(self, switch_id: str, prefix: str, out_port: int) -> float:
        """Install a prefix rule as a one-event flush.

        Returns the update's wall-clock seconds.
        """
        return self._apply(switch_id, self.provider.add_rule, prefix, out_port)

    def delete_rule(self, switch_id: str, prefix: str) -> float:
        """Remove a prefix rule as a one-event flush."""
        return self._apply(switch_id, self.provider.delete_rule, prefix)

    def add_inbound_deny(self, switch_id: str, in_port: int, pred: int) -> float:
        """Install an inbound-ACL deny entry as a one-event flush.

        ``pred`` is the denied header set as a BDD (use
        ``Match.to_bdd(hs)`` to build one from a match).  For paths
        entering the switch at ``in_port``, the newly denied slice moves
        from its forwarding ports to ``⊥``.
        """
        return self._apply(
            switch_id, self.provider.add_inbound_deny, in_port, pred
        )

    def remove_inbound_deny(self, switch_id: str, in_port: int, pred: int) -> float:
        """Remove an inbound-ACL deny entry as a one-event flush."""
        return self._apply(
            switch_id, self.provider.remove_inbound_deny, in_port, pred
        )

    def _apply(self, switch_id: str, change: Callable[..., object], *args) -> float:
        """Stage one provider change and flush it with anything staged before."""
        started = time.perf_counter()
        self._stage(switch_id, change, *args)
        self.flush_updates()
        self.last_update_s = time.perf_counter() - started
        return self.last_update_s

    # -- staged updates ---------------------------------------------------------

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
        self._stage(switch_id, self.provider.add_rule, prefix, out_port)

    def stage_delete_rule(self, switch_id: str, prefix: str) -> None:
        """Remove a prefix rule, deferring table recompute to the flush."""
        self._stage(switch_id, self.provider.delete_rule, prefix)

    def _stage(self, switch_id: str, change: Callable[..., object], *args) -> None:
        """Snapshot ``switch_id`` at first touch, then change the provider."""
        self._snapshot_preds(switch_id)
        change(switch_id, *args)
        self._pending_events += 1

    def _snapshot_preds(self, switch_id: str) -> None:
        """Capture a switch's pre-batch transfer maps at first touch.

        The ``None`` key keeps the base (pure LPM) predicates, which every
        ingress without a deny forwards by; each ingress with a deny keeps
        its own transfer map.
        """
        if switch_id in self._staged:
            return
        provider = self.provider
        snapshot: Dict[Optional[int], Dict[int, int]] = {
            None: dict(provider.base_port_predicates(switch_id))
        }
        for in_port in provider.denied_ingresses(switch_id):
            snapshot[in_port] = dict(provider.transfer_map(switch_id, in_port))
        self._staged[switch_id] = snapshot

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
        """The header-set predicates every flush since the last drain moved.

        Each element is the union, over one flush (a direct update is a
        one-event flush), of the slices that changed egress somewhere —
        ``lost ∪ gained`` across the touched switches and ingresses.  The
        dirty-pair journal says *which pairs* to re-examine; this feed says
        *which headers* within them, letting the prober aim a witness
        inside the changed slice even when hop-equivalence merged it into
        a wider entry.  Single consumer: draining empties the feed.
        """
        feed, self._change_feed = self._change_feed, []
        return feed

    # -- Section 4.4's two phases ---------------------------------------------

    def flush_updates(self) -> UpdateFlushStats:
        """Fold every staged change into the path table in one pass.

        Per staged switch and per ingress key, compares the transfer map
        captured at first touch with the current one: ``lost = T_old ∧
        ¬T_new`` and ``gained = T_new ∧ ¬T_old`` per egress port.  The
        ``None`` key covers every ingress with no deny (old base against
        new base); a port key covers each ingress with a deny now or at the
        snapshot (its old map against ``transfer_map(switch, in_port)``).
        Then *one* subtract scan runs over the table (each entry and reach
        record loses the union of the lost slices along its hops, each hop
        read under its own ingress key or ``None``) and one extend per
        dirty switch (the gained slices of each reach record that
        predates the flush re-enter the builder's Algorithm 2 step).
        Events that cancel out within the batch (add then delete) produce
        empty deltas and cost nothing.
        The result is BDD-identical to a full rebuild (property-tested).
        """
        started = time.perf_counter()
        events = self._pending_events
        staged = self._staged
        self._pending_events = 0
        self._staged = {}
        provider = self.provider
        minus: Dict[str, Dict[Optional[int], Dict[int, int]]] = {}
        plus: Dict[str, Dict[Optional[int], Dict[int, int]]] = {}
        changed_terms: List[int] = []
        dirty_ports = 0
        for switch_id, snapshot in staged.items():
            denied = {key for key in snapshot if key is not None}
            denied.update(provider.denied_ingresses(switch_id))
            lost_by_key: Dict[Optional[int], Dict[int, int]] = {}
            gained_by_key: Dict[Optional[int], Dict[int, int]] = {}
            for key in [None, *sorted(denied)]:
                new_map = (
                    provider.base_port_predicates(switch_id)
                    if key is None
                    else provider.transfer_map(switch_id, key)
                )
                lost, gained = self._map_delta(
                    snapshot.get(key, snapshot[None]), new_map
                )
                lost_by_key[key] = lost
                gained_by_key[key] = gained
                changed_terms.extend(lost.values())
                changed_terms.extend(gained.values())
                dirty_ports += len(lost) + len(gained)
            if any(lost_by_key.values()):
                minus[switch_id] = lost_by_key
            if any(gained_by_key.values()):
                plus[switch_id] = gained_by_key
        if minus or plus:
            self._subtract(minus)
            self._extend(plus)
            # Both phases mutate entry header sets in place (invisible to
            # the table's own mutators), so bump the version for the pair
            # fast-indexes and the server's failure epoch.  Every mutated
            # pair was noted in the dirty journal, so delta consumers need
            # not treat the bump as a full invalidation.
            self.table.touch(tracked=True)
        if changed_terms:
            self._push_change(self.hs.bdd.or_many(changed_terms))
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

    def _map_delta(
        self, old_map: Dict[int, int], new_map: Dict[int, int]
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Per egress port, the headers ``old_map`` loses and gains."""
        bdd = self.hs.bdd
        empty = self.hs.empty
        lost_ports: Dict[int, int] = {}
        gained_ports: Dict[int, int] = {}
        for port in old_map.keys() | new_map.keys():
            old = old_map.get(port, empty)
            new = new_map.get(port, empty)
            if old == new:
                continue
            lost = bdd.diff(old, new)
            gained = bdd.diff(new, old)
            if lost != empty:
                lost_ports[port] = lost
            if gained != empty:
                gained_ports[port] = gained
        return lost_ports, gained_ports

    def _subtract(self, minus: Dict[str, Dict[Optional[int], Dict[int, int]]]) -> None:
        """One table scan removing every lost slice along each path."""
        bdd = self.hs.bdd
        empty = self.hs.empty

        def removed_for(hops: Tuple[Hop, ...]) -> int:
            terms = []
            for hop in hops:
                by_key = minus.get(hop.switch)
                if by_key is not None:
                    lost = by_key.get(hop.in_port, by_key[None]).get(hop.out_port)
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

    def _extend(self, plus: Dict[str, Dict[Optional[int], Dict[int, int]]]) -> None:
        """Send each gained slice on from every record reaching its switch.

        Only records that predate the flush are extended: a record this
        pass creates was traversed under the new maps already, and
        extending it again would append duplicate downstream records.
        """
        arrivals = {s: list(self.builder.reach_index.get(s, ())) for s in plus}
        for switch_id in sorted(plus):
            actions = {
                key: [
                    TransferAction(port, gained[port], ())
                    for port in sorted(gained)
                ]
                for key, gained in plus[switch_id].items()
            }
            for record in arrivals[switch_id]:
                gained = actions.get(record.in_port, actions[None])
                if gained:
                    self._extend_slice(record, gained)

    def _extend_slice(self, record: ReachRecord, actions: List[TransferAction]) -> None:
        """Re-enter the builder's split at the record's arrival with ``actions``."""
        current = PortRef(record.switch, record.in_port)
        visited = {PortRef(hop.switch, hop.in_port) for hop in record.hops}
        visited.add(current)
        self.builder._split(
            self._merge_entry, record.inport, current, actions,
            record.headers, record.headers, (), record.hops, record.tag,
            frozenset(visited),
        )

    def _merge_entry(
        self,
        inport: PortRef,
        outport: PortRef,
        headers: int,
        transformed: int,
        chain: Tuple[Tuple[str, int], ...],
        hops: Tuple[Hop, ...],
        tag: int,
    ) -> None:
        """Union into an existing same-hops entry, or append a new one.

        The builder's terminal signature; prefix rules rewrite nothing, so
        ``transformed`` is ``headers`` and ``chain`` is empty.
        """
        bdd = self.hs.bdd
        for entry in self.table.lookup(inport, outport):
            if entry.hops == hops:
                merged = bdd.or_(entry.headers, headers)
                if merged != entry.headers:
                    entry.headers = merged
                    self.table.note_dirty(inport, outport)
                return
        self.table.add(inport, outport, PathEntry(headers, hops, tag))
