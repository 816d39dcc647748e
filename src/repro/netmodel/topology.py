"""Network topology model: switches, ports, links, edge classification.

VeriDP distinguishes *entry*, *exit* and *internal* switches by where their
ports attach (Section 3.3): a port connected to an end host or middlebox is
an **edge port**; ports interconnecting switches are **internal**.  The
:class:`Topology` tracks this classification because the pipeline behaves
differently at edge ports (tag initialisation on ingress, tag reports on
egress).

Port identity follows the paper's hop notation: a hop is
``<input_port, switch_id, output_port>`` with port ids local to the switch.
A global port is a :class:`PortRef` ``(switch_id, port_no)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .rules import Acl, DROP_PORT, FlowTable

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["PortRef", "SwitchInfo", "SwitchGraph", "Topology"]


@dataclass(frozen=True, order=True, slots=True)
class PortRef:
    """A globally unique reference to one port of one switch."""

    switch: str
    port: int

    def __str__(self) -> str:
        if self.port == DROP_PORT:
            return f"<{self.switch}, ⊥>"
        return f"<{self.switch}, {self.port}>"


@dataclass
class SwitchInfo:
    """Control-plane view of one switch: its ports, tables and ACLs.

    * ``flow_table`` — the forwarding rules (the controller's logical copy;
      the data-plane simulator holds its own physical copy),
    * ``in_acl`` / ``out_acl`` — optional per-port ACLs (Section 4.1's
      ``P_x^in`` and ``P_y^out`` predicates derive from these).
    """

    switch_id: str
    ports: Set[int]
    flow_table: FlowTable
    in_acl: Dict[int, Acl]
    out_acl: Dict[int, Acl]

    def __init__(self, switch_id: str) -> None:
        self.switch_id = switch_id
        self.ports = set()
        self.flow_table = FlowTable()
        self.in_acl = {}
        self.out_acl = {}


class SwitchGraph:
    """Switch-level adjacency with the wired ports recorded on each edge.

    The four graph operations routing needs, without networkx.  Neighbour
    order is edge-insertion order, and :meth:`shortest_path` expands in the
    order of ``networkx.bidirectional_shortest_path``, so every route is
    the one the networkx graph of :meth:`Topology.to_networkx` yields.
    """

    def __init__(
        self, switches: Iterable[str], links: Iterable[Tuple[PortRef, PortRef]]
    ) -> None:
        self._adj: Dict[str, Dict[str, Dict[str, int]]] = {s: {} for s in switches}
        for a, b in links:
            # Parallel links: first keeps the neighbour slot, last the ports.
            ports = {a.switch: a.port, b.switch: b.port}
            self._adj[a.switch][b.switch] = ports
            self._adj[b.switch][a.switch] = ports

    def __contains__(self, switch_id: str) -> bool:
        return switch_id in self._adj

    def neighbors(self, switch_id: str) -> Iterator[str]:
        """Adjacent switches, in edge-insertion order."""
        return iter(self._adj[switch_id])

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    def egress_port(self, from_switch: str, to_switch: str) -> int:
        """The local port on ``from_switch`` wired towards ``to_switch``."""
        return self._adj[from_switch][to_switch][from_switch]

    def shortest_path(self, source: str, target: str) -> Optional[List[str]]:
        """A hop-count shortest path, or ``None`` when disconnected."""
        if source == target:
            return [source]
        found = self._bidirectional_search(source, target)
        if found is None:
            return None
        pred, succ, meet = found
        path = []
        node: Optional[str] = meet
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[meet]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    def _bidirectional_search(self, source: str, target: str):
        """BFS from both ends; ``(pred, succ, meeting node)`` or ``None``.

        Grows the smaller fringe (forward on ties) one level at a time and
        stops at the first node both searches have reached.
        """
        pred: Dict[str, Optional[str]] = {source: None}
        succ: Dict[str, Optional[str]] = {target: None}
        forward, reverse = [source], [target]
        while forward and reverse:
            if len(forward) <= len(reverse):
                level, forward = forward, []
                seen, other, fringe = pred, succ, forward
            else:
                level, reverse = reverse, []
                seen, other, fringe = succ, pred, reverse
            for v in level:
                for w in self._adj[v]:
                    if w not in seen:
                        seen[w] = v
                        fringe.append(w)
                    if w in other:
                        return pred, succ, w
        return None


class Topology:
    """An SDN topology: switches, inter-switch links and host attachments.

    Links are bidirectional and port-to-port.  Host attachments mark ports as
    *edge* ports; everything else wired to another switch is *internal*.
    Unwired ports are treated as edge ports too (a packet leaving one exits
    the monitored domain), matching the paper's "edge port" condition in
    Algorithm 1 line 6.
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self.switches: Dict[str, SwitchInfo] = {}
        self._links: Dict[PortRef, PortRef] = {}
        self._hosts: Dict[str, PortRef] = {}
        self._host_at_port: Dict[PortRef, str] = {}
        self._middleboxes: Dict[str, PortRef] = {}
        self._mb_at_port: Dict[PortRef, str] = {}

    # -- construction ----------------------------------------------------

    def add_switch(self, switch_id: str, num_ports: int = 0) -> SwitchInfo:
        """Create a switch, optionally pre-declaring ports 1..num_ports."""
        if switch_id in self.switches:
            raise ValueError(f"duplicate switch id {switch_id!r}")
        info = SwitchInfo(switch_id)
        info.ports.update(range(1, num_ports + 1))
        self.switches[switch_id] = info
        return info

    def add_port(self, switch_id: str, port: int) -> None:
        """Declare a port on an existing switch."""
        if port <= 0:
            raise ValueError(f"port numbers are positive, got {port}")
        self._switch(switch_id).ports.add(port)

    def add_link(self, a_switch: str, a_port: int, b_switch: str, b_port: int) -> None:
        """Wire two switch ports together (bidirectional)."""
        a = PortRef(a_switch, a_port)
        b = PortRef(b_switch, b_port)
        if a == b:
            raise ValueError(f"cannot link a port to itself: {a}")
        for ref in (a, b):
            self._switch(ref.switch).ports.add(ref.port)
            if ref in self._links:
                raise ValueError(f"port {ref} is already linked to {self._links[ref]}")
            self._check_port_free(ref, "cannot wire a link here")
        self._links[a] = b
        self._links[b] = a

    def add_host(self, host_id: str, switch_id: str, port: int) -> None:
        """Attach an end host to a switch port (making it an edge port)."""
        ref = PortRef(switch_id, port)
        self._switch(switch_id).ports.add(port)
        self._check_port_free(ref, f"cannot host {host_id}")
        if host_id in self._hosts:
            raise ValueError(f"duplicate host id {host_id!r}")
        self._hosts[host_id] = ref
        self._host_at_port[ref] = host_id

    def add_middlebox(self, mb_id: str, switch_id: str, port: int) -> None:
        """Attach a *transparent* middlebox to a switch port.

        A middlebox port is not an edge port: packets sent out of it bounce
        straight back in (``link()`` returns the port itself), modelling a
        bump-in-the-wire waypoint that preserves the VeriDP in-band state.
        This reproduces Table 1's ``S1 -> S2 -> MB -> S2 -> S3`` paths with
        a single tag across the detour.
        """
        ref = PortRef(switch_id, port)
        self._switch(switch_id).ports.add(port)
        self._check_port_free(ref, f"cannot attach middlebox {mb_id}")
        if mb_id in self._middleboxes:
            raise ValueError(f"duplicate middlebox id {mb_id!r}")
        self._middleboxes[mb_id] = ref
        self._mb_at_port[ref] = mb_id

    def _check_port_free(self, ref: PortRef, context: str) -> None:
        if ref in self._links:
            raise ValueError(f"port {ref} is an internal link; {context}")
        if ref in self._host_at_port:
            raise ValueError(
                f"port {ref} already hosts {self._host_at_port[ref]}; {context}"
            )
        if ref in self._mb_at_port:
            raise ValueError(
                f"port {ref} already has middlebox {self._mb_at_port[ref]}; {context}"
            )

    # -- lookup ------------------------------------------------------------

    def _switch(self, switch_id: str) -> SwitchInfo:
        try:
            return self.switches[switch_id]
        except KeyError:
            raise KeyError(
                f"unknown switch {switch_id!r}; have {sorted(self.switches)}"
            ) from None

    def switch(self, switch_id: str) -> SwitchInfo:
        """The :class:`SwitchInfo` for ``switch_id`` (KeyError with context)."""
        return self._switch(switch_id)

    def ports_of(self, switch_id: str) -> List[int]:
        """Sorted port numbers of a switch."""
        return sorted(self._switch(switch_id).ports)

    def link(self, ref: PortRef) -> Optional[PortRef]:
        """The peer port wired to ``ref``, or ``None`` for edge/unwired ports.

        This is the ``Link(<s, y>)`` function of Algorithm 2 line 9.  A
        transparent middlebox port is its own peer: packets (and symbolic
        header sets) sent to the middlebox come straight back in.
        """
        if ref in self._mb_at_port:
            return ref
        return self._links.get(ref)

    def host_at(self, ref: PortRef) -> Optional[str]:
        """Host attached at this port, if any."""
        return self._host_at_port.get(ref)

    def host_port(self, host_id: str) -> PortRef:
        """Attachment point of a host."""
        try:
            return self._hosts[host_id]
        except KeyError:
            raise KeyError(
                f"unknown host {host_id!r}; have {sorted(self._hosts)}"
            ) from None

    def hosts(self) -> List[str]:
        """All host ids, sorted (middleboxes are listed separately)."""
        return sorted(self._hosts)

    def middleboxes(self) -> List[str]:
        """All transparent middlebox ids, sorted."""
        return sorted(self._middleboxes)

    def middlebox_port(self, mb_id: str) -> PortRef:
        """Attachment point of a middlebox."""
        try:
            return self._middleboxes[mb_id]
        except KeyError:
            raise KeyError(
                f"unknown middlebox {mb_id!r}; have {sorted(self._middleboxes)}"
            ) from None

    def is_edge_port(self, ref: PortRef) -> bool:
        """True for ports not wired to another switch (Algorithm 1/2's test).

        The drop port ``⊥`` is *not* an edge port; it is handled separately
        by the ``y == ⊥`` condition.  Transparent middlebox ports are also
        not edge ports — traversal continues through them.
        """
        if ref.port == DROP_PORT:
            return False
        self._switch(ref.switch)
        return ref not in self._links and ref not in self._mb_at_port

    def edge_ports(self) -> List[PortRef]:
        """Every edge port in the network, sorted."""
        result = [
            PortRef(sid, port)
            for sid, info in self.switches.items()
            for port in info.ports
            if self.is_edge_port(PortRef(sid, port))
        ]
        return sorted(result)

    def internal_links(self) -> List[Tuple[PortRef, PortRef]]:
        """Each physical link once, as a sorted (low, high) pair."""
        seen = set()
        result = []
        for a, b in self._links.items():
            key = tuple(sorted((a, b)))
            if key not in seen:
                seen.add(key)
                result.append(key)
        return sorted(result)

    def neighbors(self, switch_id: str) -> List[str]:
        """Switches directly linked to ``switch_id``."""
        result = set()
        info = self._switch(switch_id)
        for port in info.ports:
            peer = self._links.get(PortRef(switch_id, port))
            if peer is not None:
                result.add(peer.switch)
        return sorted(result)

    # -- derived views ------------------------------------------------------

    def switch_graph(self) -> SwitchGraph:
        """Switch-level adjacency, edges in :meth:`internal_links` order.

        Used by the controller's route computation.
        """
        return SwitchGraph(self.switches, self.internal_links())

    def to_networkx(self) -> "nx.Graph":
        """The same graph as a ``networkx.Graph`` (needs the ``dev`` extra)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.switches)
        for a, b in self.internal_links():
            graph.add_edge(a.switch, b.switch, ports={a.switch: a.port, b.switch: b.port})
        return graph

    def validate(self) -> None:
        """Sanity-check structural invariants; raises ``ValueError`` on breakage."""
        for a, b in self._links.items():
            if self._links.get(b) != a:
                raise ValueError(f"asymmetric link {a} -> {b}")
            if a.port <= 0 or b.port <= 0:
                raise ValueError(f"non-positive port in link {a} - {b}")
        for host, ref in self._hosts.items():
            if self._host_at_port.get(ref) != host:
                raise ValueError(f"host index inconsistent for {host}")
            if ref in self._links:
                raise ValueError(f"host {host} sits on an internal link port {ref}")
        for mb, ref in self._middleboxes.items():
            if self._mb_at_port.get(ref) != mb:
                raise ValueError(f"middlebox index inconsistent for {mb}")
            if ref in self._links or ref in self._host_at_port:
                raise ValueError(f"middlebox {mb} shares port {ref}")

    def diameter_bound(self) -> int:
        """A safe ``MAX_PATH_LENGTH`` for Algorithm 1's TTL.

        Twice the switch count covers middlebox hair-pinning paths that visit
        a switch more than once (e.g. ``S1 -> S2 -> MB -> S2 -> S3``), plus
        two extra hops per middlebox for the detours themselves.
        """
        return max(2 * len(self.switches) + 2 * len(self._middleboxes), 4)

    def __str__(self) -> str:
        return (
            f"Topology({self.name!r}: {len(self.switches)} switches, "
            f"{len(self.internal_links())} links, {len(self._hosts)} hosts)"
        )

    def stats(self) -> Dict[str, int]:
        """Size counters for experiment reporting."""
        return {
            "switches": len(self.switches),
            "links": len(self.internal_links()),
            "hosts": len(self._hosts),
            "edge_ports": len(self.edge_ports()),
            "rules": sum(len(info.flow_table) for info in self.switches.values()),
        }
