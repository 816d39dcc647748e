"""Policy queries over the path table.

The paper's Section 7 observes that raw packet trajectories "are not very
useful unless we know whether they are correct" — correctness is always
relative to a *policy*.  The path table is exactly the artifact to ask:
it enumerates every (header set, path) the configuration allows.  This
module turns the intents of Section 2.3 into decidable queries:

* **reachability** — can headers H get from port A to port B?
* **black holes** — which traffic entering at A is dropped, and where?
* **waypoint traversal** — does *all* H-traffic from A to B pass a switch
  or middlebox (Figure 2's firewall policy)?
* **isolation** — is there *no* path carrying H from A to B (ACL intent)?
* **path diversity** — over how many distinct paths does H-traffic split
  (Figure 3's TE intent)?

These are control-plane checks (what the *configuration* says, à la
HSA/VeriFlow); VeriDP's runtime tag verification then guarantees the data
plane actually obeys it.  Combining both closes the ``I = R`` and
``R = F`` halves of the paper's Figure 1 chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bdd.headerspace import HeaderSpace
from ..netmodel.hops import Hop
from ..netmodel.rules import DROP_PORT, Match
from ..netmodel.topology import PortRef, Topology
from .pathtable import PathEntry, PathTable

__all__ = ["QueryResult", "PolicyChecker"]


@dataclass
class QueryResult:
    """Outcome of one policy query: verdict + evidence."""

    holds: bool
    witnesses: List[Tuple[PortRef, PortRef, PathEntry]] = field(default_factory=list)
    violations: List[Tuple[PortRef, PortRef, PathEntry]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        verdict = "HOLDS" if self.holds else "VIOLATED"
        return (
            f"{verdict} ({len(self.witnesses)} witnesses, "
            f"{len(self.violations)} violations)"
        )


class PolicyChecker:
    """Decide Section 2.3-style intents against a built path table."""

    def __init__(self, table: PathTable, hs: HeaderSpace, topo: Topology) -> None:
        self.table = table
        self.hs = hs
        self.topo = topo

    # -- helpers -----------------------------------------------------------

    def _headers_bdd(self, headers: Optional[Match]) -> int:
        if headers is None:
            return self.hs.all_match
        return headers.to_bdd(self.hs)

    def _entries_between(
        self, src: PortRef, dst: Optional[PortRef], headers_bdd: int
    ):
        """(inport, outport, entry) whose header set intersects the query."""
        bdd = self.hs.bdd
        for inport, outport, entry in self.table.all_entries():
            if inport != src:
                continue
            if dst is not None and outport != dst:
                continue
            if bdd.and_(entry.headers, headers_bdd) != self.hs.empty:
                yield inport, outport, entry

    def _host_port(self, endpoint: str) -> PortRef:
        """Accept a host id or a ``PortRef`` directly."""
        if isinstance(endpoint, PortRef):
            return endpoint
        return self.topo.host_port(endpoint)

    # -- queries ---------------------------------------------------------

    def reachability(
        self, src, dst, headers: Optional[Match] = None
    ) -> QueryResult:
        """Can any queried traffic get from ``src`` to ``dst``?

        Witnesses are the delivering paths.
        """
        src_port, dst_port = self._host_port(src), self._host_port(dst)
        pred = self._headers_bdd(headers)
        result = QueryResult(holds=False)
        for item in self._entries_between(src_port, dst_port, pred):
            result.witnesses.append(item)
        result.holds = bool(result.witnesses)
        return result

    def isolation(
        self, src, dst, headers: Optional[Match] = None
    ) -> QueryResult:
        """Is there *no* path carrying the queried traffic src -> dst?

        The access-control intent: violations are the paths that leak.
        """
        reach = self.reachability(src, dst, headers)
        return QueryResult(holds=not reach.holds, violations=reach.witnesses)

    def black_holes(
        self, src, headers: Optional[Match] = None
    ) -> QueryResult:
        """Which queried traffic entering at ``src`` is dropped, and where?

        ``holds`` is True when *no* queried traffic is dropped
        (black-hole-freedom); the violations list the drop paths, whose last
        hop names the dropping switch.
        """
        src_port = self._host_port(src)
        pred = self._headers_bdd(headers)
        result = QueryResult(holds=True)
        for inport, outport, entry in self._entries_between(src_port, None, pred):
            if outport.port == DROP_PORT:
                result.violations.append((inport, outport, entry))
        result.holds = not result.violations
        return result

    def waypoint(
        self,
        src,
        dst,
        via: str,
        headers: Optional[Match] = None,
    ) -> QueryResult:
        """Must *all* queried src -> dst traffic traverse switch ``via``?

        Figure 2's middlebox-chaining intent.  ``via`` is a switch id (for
        a transparent middlebox, the switch it hangs off — or pass the
        middlebox id to check the detour port itself).
        """
        src_port, dst_port = self._host_port(src), self._host_port(dst)
        pred = self._headers_bdd(headers)
        mb_port: Optional[PortRef] = None
        if via in self.topo.middleboxes():
            mb_port = self.topo.middlebox_port(via)
        result = QueryResult(holds=True)
        for item in self._entries_between(src_port, dst_port, pred):
            _, _, entry = item
            if mb_port is not None:
                traverses = any(
                    hop.switch == mb_port.switch and hop.out_port == mb_port.port
                    for hop in entry.hops
                )
            else:
                traverses = any(hop.switch == via for hop in entry.hops)
            (result.witnesses if traverses else result.violations).append(item)
        result.holds = not result.violations and bool(result.witnesses)
        return result

    def path_diversity(
        self, src, dst, headers: Optional[Match] = None
    ) -> Dict[Tuple[Hop, ...], int]:
        """Distinct hop sequences carrying the queried traffic src -> dst.

        Returns ``{hops: count_of_entries}`` — the Figure 3 TE intent is
        ``len(result) >= 2``.
        """
        src_port, dst_port = self._host_port(src), self._host_port(dst)
        pred = self._headers_bdd(headers)
        paths: Dict[Tuple[Hop, ...], int] = {}
        for _, _, entry in self._entries_between(src_port, dst_port, pred):
            paths[entry.hops] = paths.get(entry.hops, 0) + 1
        return paths

    def max_path_length(self, headers: Optional[Match] = None) -> int:
        """Longest configured path any queried traffic can take.

        Dimension the verification TTL (Algorithm 1's MAX_PATH_LENGTH)
        against this instead of the coarse topology bound.
        """
        pred = self._headers_bdd(headers)
        bdd = self.hs.bdd
        longest = 0
        for _, _, entry in self.table.all_entries():
            if bdd.and_(entry.headers, pred) != self.hs.empty:
                longest = max(longest, entry.path_length())
        return longest
