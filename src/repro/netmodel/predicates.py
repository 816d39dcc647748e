"""Transfer predicates: the switch-configuration abstraction of Section 4.1.

A switch ``s`` with ports ``1..n`` is abstracted by *transfer predicates*
``P_{x,y}``: only packets whose headers satisfy ``P_{x,y}`` transfer from
port ``x`` to port ``y``.  The paper composes them from three port
predicates:

* ``P_x^in``  — the in-bound ACL of port ``x``,
* ``P_y^fwd`` — headers the (priority-resolved) flow table sends to ``y``,
* ``P_y^out`` — the out-bound ACL of port ``y``,

as::

    P_{x,y} = P_x^in ∧ P_y^fwd ∧ P_y^out                      (y != ⊥)
    P_{x,⊥} = ¬P_x^in ∨ (P_x^in ∧ P_⊥^fwd)
              ∨ (P_x^in ∧ ∨_y (P_y^fwd ∧ ¬P_y^out))
    P_⊥^fwd = ¬(∨_y P_y^fwd)

The three disjuncts of ``P_{x,⊥}`` are the three drop reasons: inbound-ACL
filtering, no forwarding match, outbound-ACL filtering.

Priority resolution: rules are scanned in flow-table lookup order while
subtracting already-claimed header space, so an overlapped low-priority rule
contributes only the headers the higher-priority rules left behind.  Rules
matching on ``in_port`` make ``P_y^fwd`` ingress-dependent; we therefore
compute forwarding predicates *per ingress port* (a strict generalisation of
the paper's formulation, collapsing to it when no rule uses ``in_port``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bdd.headerspace import HeaderSpace
from .rules import DROP_PORT, GotoTable
from .topology import SwitchInfo, Topology

__all__ = ["SwitchPredicates", "TransferAction", "build_all_predicates"]


@dataclass(frozen=True)
class TransferAction:
    """One slice of a switch's behaviour for a given ingress port.

    Packets (pre-rewrite headers) satisfying ``pred`` leave on ``out_port``
    after the ``rewrites`` are applied.  Drop slices have
    ``out_port == DROP_PORT`` and no rewrites.  The preds of all actions
    for one ingress partition the header space.
    """

    out_port: int
    pred: int
    rewrites: Tuple[Tuple[str, int], ...] = ()


class SwitchPredicates:
    """Per-switch transfer predicates, computed from one switch's tables.

    Instances are snapshots: recompute (or apply the incremental updater in
    :mod:`repro.core.incremental`) after the flow table changes.
    """

    def __init__(self, info: SwitchInfo, hs: HeaderSpace) -> None:
        self.switch_id = info.switch_id
        self.hs = hs
        self._ports = sorted(info.ports)
        self._in_acl = {
            port: acl.to_bdd(hs) for port, acl in info.in_acl.items()
        }
        self._out_acl = {
            port: acl.to_bdd(hs) for port, acl in info.out_acl.items()
        }
        self._fwd_by_inport: Dict[Optional[int], Dict[int, int]] = {}
        self._slices_by_inport: Dict[Optional[int], list] = {}
        self._actions: Dict[Tuple[Optional[int], int], List[TransferAction]] = {}
        self._table = info.flow_table
        self._ingress_sensitive = any(
            rule.match.in_port is not None for rule in info.flow_table
        )

    # -- port predicates -------------------------------------------------

    def in_pred(self, port: int) -> int:
        """``P_x^in``: headers admitted by port ``port``'s inbound ACL."""
        return self._in_acl.get(port, self.hs.all_match)

    def out_pred(self, port: int) -> int:
        """``P_y^out``: headers admitted by port ``port``'s outbound ACL."""
        return self._out_acl.get(port, self.hs.all_match)

    def _expand_table(
        self,
        in_port: Optional[int],
        table_id: int,
        remaining: int,
        chain: Tuple[Tuple[str, int], ...],
    ):
        """Yield ``(out_port, entry_pred, rewrites)`` slices for one table.

        ``remaining`` and the yielded predicates are over *entry* headers
        (pre-rewrite); matches in later tables are pulled back through the
        accumulated set-field ``chain``.  The yielded slices partition
        ``remaining``.
        """
        bdd = self.hs.bdd
        for rule in self._table.sorted_rules(table_id):
            if rule.match.in_port is not None and rule.match.in_port != in_port:
                continue
            if remaining == self.hs.empty:
                return
            match_bdd = rule.match.to_bdd(self.hs)
            if chain:
                match_bdd = self.hs.preimage_sets(match_bdd, chain)
            effective = bdd.and_(remaining, match_bdd)
            if effective == self.hs.empty:
                continue
            # R - (R & m) = R - m: subtract the match, not the slice.
            remaining = bdd.diff(remaining, match_bdd)
            action = rule.action
            if isinstance(action, GotoTable):
                if action.table_id <= table_id:  # defensive; ctor forbids it
                    yield (DROP_PORT, effective, ())
                else:
                    yield from self._expand_table(
                        in_port,
                        action.table_id,
                        effective,
                        chain + action.effective_sets(),
                    )
                continue
            out = rule.output_port()
            if out != DROP_PORT and out not in self._ports:
                out = DROP_PORT  # output to a nonexistent port drops
            if out == DROP_PORT:
                yield (DROP_PORT, effective, ())
            else:
                yield (out, effective, chain + rule.rewrite_sets())
        if remaining != self.hs.empty:
            yield (DROP_PORT, remaining, ())  # table miss drops

    def _expand_slices(self, in_port: Optional[int]) -> list:
        """Full-pipeline slices for one ingress (start in table 0).

        Expanded once per ingress class: every port shares one list unless
        some rule matches on ``in_port``.
        """
        key = in_port if self._ingress_sensitive else None
        slices = self._slices_by_inport.get(key)
        if slices is None:
            slices = list(self._expand_table(key, 0, self.hs.all_match, ()))
            self._slices_by_inport[key] = slices
        return slices

    def forwarding_predicates(self, in_port: Optional[int] = None) -> Dict[int, int]:
        """``P_y^fwd`` for every output port ``y`` including ``DROP_PORT``.

        ``in_port`` selects the ingress for ``in_port``-matching rules; pass
        ``None`` to treat such rules as never matching.  Multi-table
        pipelines are resolved through their ``GotoTable`` chains.  The
        returned map is a partition of the full header space over *entry*
        headers: every header lands on exactly one output port (maybe ``⊥``).
        """
        key = in_port if self._ingress_sensitive else None
        cached = self._fwd_by_inport.get(key)
        if cached is not None:
            return cached
        bdd = self.hs.bdd
        preds: Dict[int, int] = {port: self.hs.empty for port in self._ports}
        preds[DROP_PORT] = self.hs.empty
        for out, effective, _ in self._expand_slices(in_port):
            preds[out] = bdd.or_(preds[out], effective)
        self._fwd_by_inport[key] = preds
        return preds

    # -- rewrite-aware transfer actions -------------------------------------

    def transfer_actions(self, in_port: int) -> List[TransferAction]:
        """Per-rule transfer slices for one ingress, rewrites included.

        This is the rewrite-aware generalisation of :meth:`transfer_map`:
        each action couples the (priority-resolved, ACL-composed) predicate
        with the rewrites its rule applies.  Outbound ACLs filter the
        packet *as sent*, so the egress ACL constraint is pulled back
        through the rewrite chain with
        :meth:`~repro.bdd.headerspace.HeaderSpace.preimage_sets`.

        The actions depend on ``in_port`` only through its ingress class
        and its inbound ACL, so ports that share both share one list.
        """
        bdd = self.hs.bdd
        p_in = self.in_pred(in_port)
        memo_key = (in_port if self._ingress_sensitive else None, p_in)
        cached = self._actions.get(memo_key)
        if cached is not None:
            return cached
        merged: Dict[Tuple[int, Tuple[Tuple[str, int], ...]], int] = {}
        drop_pred = bdd.not_(p_in)
        for out, effective, rewrites in self._expand_slices(in_port):
            if out == DROP_PORT:
                drop_pred = bdd.or_(drop_pred, bdd.and_(p_in, effective))
                continue
            out_acl = self.out_pred(out)
            if rewrites:
                out_acl = self.hs.preimage_sets(out_acl, rewrites)
            passed = bdd.and_many([p_in, effective, out_acl])
            blocked = bdd.and_many([p_in, effective, bdd.not_(out_acl)])
            if passed != self.hs.empty:
                key = (out, rewrites)
                merged[key] = bdd.or_(merged.get(key, self.hs.empty), passed)
            drop_pred = bdd.or_(drop_pred, blocked)
        actions = [
            TransferAction(out, pred, rewrites)
            for (out, rewrites), pred in sorted(merged.items())
        ]
        actions.append(TransferAction(DROP_PORT, drop_pred, ()))
        self._actions[memo_key] = actions
        return actions

    # -- transfer predicates ------------------------------------------------

    def transfer(self, in_port: int, out_port: int) -> int:
        """``P_{x,y}`` — the headers that transfer ``in_port -> out_port``."""
        bdd = self.hs.bdd
        fwd = self.forwarding_predicates(in_port)
        p_in = self.in_pred(in_port)
        if out_port != DROP_PORT:
            p_fwd = fwd.get(out_port, self.hs.empty)
            return bdd.and_many([p_in, p_fwd, self.out_pred(out_port)])
        # Drop predicate: three drop reasons per the paper's formula.
        not_in = bdd.not_(p_in)
        fwd_drop = bdd.and_(p_in, fwd[DROP_PORT])
        acl_drop = self.hs.empty
        for port in self._ports:
            blocked = bdd.and_(
                fwd.get(port, self.hs.empty), bdd.not_(self.out_pred(port))
            )
            acl_drop = bdd.or_(acl_drop, blocked)
        acl_drop = bdd.and_(p_in, acl_drop)
        return bdd.or_many([not_in, fwd_drop, acl_drop])

    def transfer_map(self, in_port: int) -> Dict[int, int]:
        """``P_{x,y}`` for all ``y`` (including ``⊥``) given ingress ``x``.

        The values partition the header space (property-tested): every
        header entering at ``x`` goes to exactly one output.
        """
        result = {}
        for port in self._ports:
            pred = self.transfer(in_port, port)
            if pred != self.hs.empty:
                result[port] = pred
        result[DROP_PORT] = self.transfer(in_port, DROP_PORT)
        return result

    def ports(self) -> List[int]:
        """Declared ports of the switch, sorted."""
        return list(self._ports)


def build_all_predicates(
    topo: Topology, hs: HeaderSpace
) -> Dict[str, SwitchPredicates]:
    """Snapshot transfer predicates for every switch in the topology."""
    return {
        switch_id: SwitchPredicates(info, hs)
        for switch_id, info in topo.switches.items()
    }
