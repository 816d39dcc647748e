"""Flow rules, matches, actions and flow tables.

This is the OpenFlow-ish rule substrate both planes share: the controller
compiles *logical rules* (``R``) of these types, switches hold *physical
rules* (``R'``) of the same types, and the whole point of VeriDP is to catch
``R != R'`` or ``R' != F`` at runtime.

A :class:`Match` is a conjunction of per-field constraints (IP prefixes,
exact values, port ranges, optional ingress port).  A :class:`FlowRule`
couples a priority, a match and an action (:class:`Forward` or :class:`Drop`).
A :class:`FlowTable` resolves lookups by priority with deterministic
tie-breaking, exactly like an OpenFlow table.

ACLs (used by the Stanford-style configurations, Section 4.1) are ordered
permit/deny lists evaluated first-match; see :class:`Acl`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..bdd.headerspace import HeaderSpace, parse_prefix
from .packet import Header

__all__ = [
    "Match",
    "Forward",
    "Drop",
    "Action",
    "FlowRule",
    "FlowTable",
    "AclEntry",
    "Acl",
    "DROP_PORT",
]

#: The paper's ``⊥`` port: the destination of dropped packets.
DROP_PORT = -1

_rule_ids = itertools.count(1)


@dataclass(frozen=True)
class Match:
    """A conjunctive match over the 5-tuple plus optional ingress port.

    * ``src_prefix`` / ``dst_prefix`` — ``(value, plen)`` IP prefixes,
    * ``proto`` — exact IP protocol,
    * ``src_port_range`` / ``dst_port_range`` — inclusive ``(lo, hi)``,
    * ``in_port`` — restrict to packets received on that switch port.

    ``None`` means wildcard.  An all-``None`` match is the table-miss match.
    """

    src_prefix: Optional[Tuple[int, int]] = None
    dst_prefix: Optional[Tuple[int, int]] = None
    proto: Optional[int] = None
    src_port_range: Optional[Tuple[int, int]] = None
    dst_port_range: Optional[Tuple[int, int]] = None
    in_port: Optional[int] = None

    @classmethod
    def build(
        cls,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        proto: Optional[int] = None,
        src_port: Optional[Union[int, Tuple[int, int]]] = None,
        dst_port: Optional[Union[int, Tuple[int, int]]] = None,
        in_port: Optional[int] = None,
    ) -> "Match":
        """Convenience constructor taking ``"a.b.c.d/len"`` prefix strings."""
        return cls(
            src_prefix=parse_prefix(src) if src is not None else None,
            dst_prefix=parse_prefix(dst) if dst is not None else None,
            proto=proto,
            src_port_range=cls._as_range(src_port),
            dst_port_range=cls._as_range(dst_port),
            in_port=in_port,
        )

    @staticmethod
    def _as_range(
        spec: Optional[Union[int, Tuple[int, int]]]
    ) -> Optional[Tuple[int, int]]:
        if spec is None:
            return None
        if isinstance(spec, int):
            return (spec, spec)
        lo, hi = spec
        if lo > hi:
            raise ValueError(f"empty port range {spec}")
        return (lo, hi)

    def matches(self, header: Header, in_port: Optional[int] = None) -> bool:
        """Does a concrete header (arriving on ``in_port``) satisfy the match?"""
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.src_prefix is not None:
            value, plen = self.src_prefix
            if plen and (header.src_ip >> (32 - plen)) != (value >> (32 - plen)):
                return False
        if self.dst_prefix is not None:
            value, plen = self.dst_prefix
            if plen and (header.dst_ip >> (32 - plen)) != (value >> (32 - plen)):
                return False
        if self.proto is not None and header.proto != self.proto:
            return False
        if self.src_port_range is not None:
            lo, hi = self.src_port_range
            if not lo <= header.src_port <= hi:
                return False
        if self.dst_port_range is not None:
            lo, hi = self.dst_port_range
            if not lo <= header.dst_port <= hi:
                return False
        return True

    def to_bdd(self, hs: HeaderSpace) -> int:
        """Header-set BDD of this match (``in_port`` is *not* encoded here:
        transfer-predicate computation handles ingress ports structurally).

        Memoized per header space (``hs.match_bdds``)."""
        cached = hs.match_bdds.get(self)
        if cached is not None:
            return cached
        terms: List[int] = []
        if self.src_prefix is not None:
            terms.append(hs.prefix("src_ip", *self.src_prefix))
        if self.dst_prefix is not None:
            terms.append(hs.prefix("dst_ip", *self.dst_prefix))
        if self.proto is not None:
            terms.append(hs.exact("proto", self.proto))
        if self.src_port_range is not None:
            terms.append(hs.range_("src_port", *self.src_port_range))
        if self.dst_port_range is not None:
            terms.append(hs.range_("dst_port", *self.dst_port_range))
        result = hs.bdd.and_many(terms)
        hs.match_bdds[self] = result
        return result

    def describe(self) -> str:
        """Compact human-readable form for logs and error messages."""
        parts = []
        if self.in_port is not None:
            parts.append(f"in_port={self.in_port}")
        if self.src_prefix is not None:
            parts.append(f"src={self.src_prefix[0]:#010x}/{self.src_prefix[1]}")
        if self.dst_prefix is not None:
            parts.append(f"dst={self.dst_prefix[0]:#010x}/{self.dst_prefix[1]}")
        if self.proto is not None:
            parts.append(f"proto={self.proto}")
        if self.src_port_range is not None:
            parts.append(f"sport={self.src_port_range}")
        if self.dst_port_range is not None:
            parts.append(f"dport={self.dst_port_range}")
        return " ".join(parts) if parts else "*"


@dataclass(frozen=True)
class Forward:
    """Output the packet on a switch port."""

    port: int

    def __post_init__(self) -> None:
        if self.port < 0:
            raise ValueError(f"forward port must be non-negative, got {self.port}")


@dataclass(frozen=True)
class Drop:
    """Discard the packet (the ``⊥`` port of the paper)."""


@dataclass(frozen=True)
class Rewrite:
    """Set header fields to constants, then output on a port.

    The OpenFlow ``set_field*; output`` action list.  Header rewrites are
    the paper's future work #1 ("incorporating header rewrites into the
    current VeriDP framework"); this reproduction implements them — see
    :mod:`repro.core.pathtable` for how the path table tracks entry- and
    exit-header sets through rewrite chains.

    ``sets`` is an ordered tuple of ``(field_name, value)`` pairs applied
    left to right (later sets of the same field win, as in OpenFlow).
    """

    sets: Tuple[Tuple[str, int], ...]
    port: int

    def __post_init__(self) -> None:
        if self.port < 0:
            raise ValueError(f"rewrite output port must be non-negative, got {self.port}")
        if not self.sets:
            raise ValueError("a Rewrite needs at least one field set; use Forward")
        for name, value in self.sets:
            if value < 0:
                raise ValueError(f"negative value {value} for field {name!r}")

    def effective_sets(self) -> Tuple[Tuple[str, int], ...]:
        """The sets with per-field last-write-wins applied, in field order
        of last write."""
        final: Dict[str, int] = {}
        for name, value in self.sets:
            final.pop(name, None)
            final[name] = value
        return tuple(final.items())


@dataclass(frozen=True)
class GotoTable:
    """Continue matching in a later table (OpenFlow multi-table pipelines).

    The paper's Section 3.3 motivates the separate VeriDP pipeline with
    exactly this: "a typical switch can contain a cascade of flow tables".
    ``sets`` are optional ``set_field`` writes applied before the jump
    (the write-metadata/set-field-then-goto idiom).  OpenFlow requires the
    target table id to be *greater* than the current one; resolution treats
    a backward jump as a drop (enforced at lookup, where the current table
    is known).
    """

    table_id: int
    sets: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.table_id <= 0:
            raise ValueError(
                f"goto target must be a later table (> 0), got {self.table_id}"
            )
        for name, value in self.sets:
            if value < 0:
                raise ValueError(f"negative value {value} for field {name!r}")

    def effective_sets(self) -> Tuple[Tuple[str, int], ...]:
        """Per-field last-write-wins, like :meth:`Rewrite.effective_sets`."""
        final: Dict[str, int] = {}
        for name, value in self.sets:
            final.pop(name, None)
            final[name] = value
        return tuple(final.items())


Action = Union[Forward, Drop, Rewrite, GotoTable]


def _next_rule_id() -> int:
    return next(_rule_ids)


@dataclass(frozen=True)
class FlowRule:
    """A prioritised match-action rule.

    ``rule_id`` is globally unique and survives controller->switch transfer,
    which is what lets fault injection target "the same rule" on both planes.
    ``table_id`` places the rule in a multi-table pipeline (0 = the first
    table; packets always start there).
    """

    priority: int
    match: Match
    action: Action
    rule_id: int = field(default_factory=_next_rule_id)
    table_id: int = 0

    def __post_init__(self) -> None:
        if self.table_id < 0:
            raise ValueError(f"table_id must be non-negative, got {self.table_id}")
        if isinstance(self.action, GotoTable) and self.action.table_id <= self.table_id:
            raise ValueError(
                f"goto target {self.action.table_id} must be beyond "
                f"table {self.table_id}"
            )

    def output_port(self) -> int:
        """The port this rule sends packets to (``DROP_PORT`` for drops and
        goto rules — the chain's terminal rule owns the real output)."""
        if isinstance(self.action, (Forward, Rewrite)):
            return self.action.port
        return DROP_PORT

    def rewrite_sets(self) -> Tuple[Tuple[str, int], ...]:
        """The field rewrites this rule applies (empty for plain actions)."""
        if isinstance(self.action, Rewrite):
            return self.action.effective_sets()
        return ()

    def describe(self) -> str:
        if isinstance(self.action, Forward):
            action = f"fwd({self.action.port})"
        elif isinstance(self.action, Rewrite):
            sets = ",".join(f"{n}={v}" for n, v in self.action.sets)
            action = f"set[{sets}]->fwd({self.action.port})"
        elif isinstance(self.action, GotoTable):
            sets = ",".join(f"{n}={v}" for n, v in self.action.sets)
            prefix = f"set[{sets}]->" if sets else ""
            action = f"{prefix}goto({self.action.table_id})"
        else:
            action = "drop"
        table = f" t{self.table_id}" if self.table_id else ""
        return (
            f"[{self.rule_id}]{table} prio={self.priority} "
            f"{self.match.describe()} -> {action}"
        )


class FlowTable:
    """An OpenFlow-style flow table with priority-ordered lookup.

    Ties on priority are broken by insertion order (first installed wins),
    which mirrors the deterministic behaviour of real switch ASICs and keeps
    the control-plane model and data-plane simulator in agreement.
    """

    def __init__(self, rules: Iterable[FlowRule] = ()) -> None:
        self._rules: Dict[int, FlowRule] = {}
        self._order: List[int] = []
        for rule in rules:
            self.add(rule)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[FlowRule]:
        return iter(self.sorted_rules())

    def __contains__(self, rule_id: int) -> bool:
        return rule_id in self._rules

    def add(self, rule: FlowRule) -> None:
        """Install a rule; re-installing the same id replaces it in place."""
        if rule.rule_id not in self._rules:
            self._order.append(rule.rule_id)
        self._rules[rule.rule_id] = rule

    def remove(self, rule_id: int) -> FlowRule:
        """Uninstall and return a rule; ``KeyError`` if absent."""
        rule = self._rules.pop(rule_id)
        self._order.remove(rule_id)
        return rule

    def get(self, rule_id: int) -> Optional[FlowRule]:
        """The rule with this id, or ``None``."""
        return self._rules.get(rule_id)

    def sorted_rules(self, table_id: Optional[int] = None) -> List[FlowRule]:
        """Rules in lookup order: descending priority, then install order.

        ``table_id`` filters to one pipeline table; ``None`` returns every
        rule (useful for iteration/statistics, not for lookups).
        """
        position = {rid: i for i, rid in enumerate(self._order)}
        rules = self._rules.values()
        if table_id is not None:
            rules = [r for r in rules if r.table_id == table_id]
        return sorted(rules, key=lambda r: (-r.priority, position[r.rule_id]))

    def table_ids(self) -> List[int]:
        """The pipeline tables present, sorted (always at least [0])."""
        ids = {r.table_id for r in self._rules.values()}
        ids.add(0)
        return sorted(ids)

    def lookup(
        self,
        header: Header,
        in_port: Optional[int] = None,
        table_id: int = 0,
    ) -> Optional[FlowRule]:
        """Highest-priority rule of one table matching the header.

        This is a *single-table* lookup (packets start in table 0);
        chain resolution across ``GotoTable`` actions lives in the
        data-plane switch, which owns the lookup-misbehaviour flags.
        """
        for rule in self.sorted_rules(table_id):
            if rule.match.matches(header, in_port):
                return rule
        return None

    def copy(self) -> "FlowTable":
        """A shallow copy (rules are immutable, so sharing them is safe)."""
        table = FlowTable()
        for rule_id in self._order:
            table.add(self._rules[rule_id])
        return table


@dataclass(frozen=True)
class AclEntry:
    """One permit/deny line of an access-control list."""

    match: Match
    permit: bool


class Acl:
    """An ordered first-match ACL with an implicit trailing action.

    Cisco-style in/out-bound ACLs referenced in Section 4.1.  The default
    ``default_permit=True`` makes the empty ACL a no-op.
    """

    def __init__(self, entries: Iterable[AclEntry] = (), default_permit: bool = True) -> None:
        self.entries: List[AclEntry] = list(entries)
        self.default_permit = default_permit

    def permits(self, header: Header) -> bool:
        """First-match evaluation of the ACL on a concrete header."""
        for entry in self.entries:
            if entry.match.matches(header):
                return entry.permit
        return self.default_permit

    def to_bdd(self, hs: HeaderSpace) -> int:
        """The header set this ACL permits, as a BDD."""
        permitted = hs.empty
        remaining = hs.all_match
        for entry in self.entries:
            matched = hs.bdd.and_(entry.match.to_bdd(hs), remaining)
            if entry.permit:
                permitted = hs.bdd.or_(permitted, matched)
            remaining = hs.bdd.diff(remaining, matched)
        if self.default_permit:
            permitted = hs.bdd.or_(permitted, remaining)
        return permitted

    def add(self, entry: AclEntry) -> None:
        """Append an entry at the end (lowest precedence before the default)."""
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)
