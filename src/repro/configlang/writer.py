"""Emit configuration files from a switch's logical state.

The inverse of :mod:`repro.configlang.parser`: serialise a
:class:`~repro.netmodel.topology.SwitchInfo`'s destination-prefix routes and
ACLs back into the mini-IOS text format, so whole scenarios can be exported
as config directories (and re-imported bit-for-bit — round-trip tested).

Only the config-language-expressible subset is serialisable: dst-prefix
``Forward``/``Drop`` rules and ACLs whose entries fit the
``proto/src/dst/eq-port`` shape.  Anything richer (ingress-pinned waypoint
rules, rewrites, port ranges) raises ``UnrepresentableError`` rather than
silently dropping semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bdd.headerspace import format_ipv4
from ..netmodel.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from ..netmodel.rules import Acl, Drop, Forward
from ..netmodel.topology import SwitchInfo

__all__ = ["UnrepresentableError", "write_config"]

_PROTO_TO_NAME = {None: "ip", PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}


class UnrepresentableError(ValueError):
    """The switch state does not fit the config language."""


def _format_prefix(prefix: Optional[Tuple[int, int]]) -> str:
    if prefix is None:
        return "any"
    value, plen = prefix
    return f"{format_ipv4(value)}/{plen}"


def _acl_entry_line(acl_id: int, entry) -> str:
    match = entry.match
    if (
        match.in_port is not None
        or match.src_port_range is not None
    ):
        raise UnrepresentableError(
            f"ACL match {match.describe()} uses fields outside the config language"
        )
    proto = _PROTO_TO_NAME.get(match.proto)
    if proto is None:
        raise UnrepresentableError(f"protocol {match.proto} has no config name")
    suffix = ""
    if match.dst_port_range is not None:
        lo, hi = match.dst_port_range
        if lo != hi:
            raise UnrepresentableError(
                f"port range {match.dst_port_range} is not expressible (eq only)"
            )
        suffix = f" eq {lo}"
    verdict = "permit" if entry.permit else "deny"
    return (
        f"access-list {acl_id} {verdict} {proto} "
        f"{_format_prefix(match.src_prefix)} {_format_prefix(match.dst_prefix)}"
        f"{suffix}"
    )


def write_config(info: SwitchInfo) -> str:
    """Serialise one switch's routes + ACLs to config text."""
    lines: List[str] = [f"hostname {info.switch_id}", "!"]

    # Routes: dst-prefix rules.  The config language implies longest-prefix
    # match, so the switch's priorities must *agree with* LPM wherever two
    # prefixes overlap (equal-priority disjoint prefixes are fine).
    routes = info.flow_table.sorted_rules()
    for rule in routes:
        match = rule.match
        if (
            match.src_prefix is not None
            or match.proto is not None
            or match.src_port_range is not None
            or match.dst_port_range is not None
            or match.in_port is not None
            or match.dst_prefix is None
        ):
            raise UnrepresentableError(
                f"rule {rule.describe()} is not a plain destination route"
            )
    for i, a in enumerate(routes):
        for b in routes[i + 1 :]:
            va, pa = a.match.dst_prefix
            vb, pb = b.match.dst_prefix
            shorter = min(pa, pb)
            overlap = shorter == 0 or (va >> (32 - shorter)) == (vb >> (32 - shorter))
            if not overlap or pa == pb:
                continue
            # a precedes b in lookup order; LPM demands the longer wins.
            if pa < pb:
                raise UnrepresentableError(
                    f"rules {a.describe()} and {b.describe()}: priority order "
                    "contradicts longest-prefix match, not expressible"
                )
    for rule in routes:
        match = rule.match
        if isinstance(rule.action, Forward):
            target = f"port{rule.action.port}"
        elif isinstance(rule.action, Drop):
            target = "drop"
        else:
            raise UnrepresentableError(
                f"rule {rule.describe()}: action not expressible"
            )
        lines.append(f"ip route {_format_prefix(match.dst_prefix)} {target}")
    lines.append("!")

    # ACLs: deterministically numbered per (direction, port).
    acl_ids: Dict[Tuple[str, int], int] = {}
    next_id = 101
    bindings: List[Tuple[int, str, int]] = []
    for direction, table in (("in", info.in_acl), ("out", info.out_acl)):
        for port in sorted(table):
            acl_ids[(direction, port)] = next_id
            bindings.append((port, direction, next_id))
            next_id += 1

    for direction, table in (("in", info.in_acl), ("out", info.out_acl)):
        for port in sorted(table):
            acl: Acl = table[port]
            if acl.default_permit:
                raise UnrepresentableError(
                    f"{direction} ACL on port{port}: the config language has an "
                    "implicit deny; append an explicit 'permit ip any any' entry"
                )
            acl_id = acl_ids[(direction, port)]
            for entry in acl.entries:
                lines.append(_acl_entry_line(acl_id, entry))
    if acl_ids:
        lines.append("!")

    for port, direction, acl_id in bindings:
        lines.append(f"interface port{port}")
        lines.append(f"  ip access-group {acl_id} {direction}")
    lines.append("")
    return "\n".join(lines)
