"""A minimal SDN controller.

Plays the role Floodlight plays in the paper's testbed: it owns the logical
network view (the :class:`~repro.netmodel.topology.Topology` and its flow
tables — the ``R`` of Figure 1), compiles operator intent into rules, and
pushes them to switches over the :class:`~repro.controlplane.messages.Channel`
as FlowMods (which become the physical ``R'`` at the data plane, faults
permitting).

Intent compilers provided:

* :meth:`Controller.install_destination_routes` — shortest-path forwarding
  towards every host subnet (the "ping each other to populate flow tables"
  workload used for the fat-tree experiments, Section 6.1),
* :meth:`Controller.install_path` — pin an explicit switch-level path for a
  match (waypoint / middlebox chaining, Figure 2),
* :meth:`Controller.install_acl` — drop a header set at a switch (access
  control, Section 2.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from collections import deque

from ..core.bloom import murmur3_32
from ..netmodel.rules import Drop, FlowRule, Forward, Match
from ..netmodel.topology import PortRef, Topology
from .messages import Channel, FlowMod, FlowModOp, TableFlush

__all__ = ["Controller", "RoutingError", "ecmp_next_hops"]


def ecmp_next_hops(graph, target: str, seed: str) -> Dict[str, str]:
    """Shortest-path next hops towards ``target``, ECMP-style tie-breaking.

    ``graph`` is anything with ``neighbors(node)``: a
    :class:`~repro.netmodel.topology.SwitchGraph` or a networkx graph.

    A BFS from the target whose neighbour visit order is permuted by a
    stable hash of ``(seed, neighbour)``.  Different seeds (we use the
    destination host id) spread equal-cost ties across different parents —
    the per-destination load balancing a fat tree relies on — while staying
    fully deterministic for reproducibility.
    """

    def rank(node: str) -> int:
        return murmur3_32(f"{seed}|{node}".encode("utf-8"))

    dist = {target: 0}
    next_hop: Dict[str, str] = {}
    queue = deque([target])
    while queue:
        node = queue.popleft()
        for neighbor in sorted(graph.neighbors(node), key=rank):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                next_hop[neighbor] = node
                queue.append(neighbor)
    return next_hop

#: Default priority bands, spaced so scenario rules can slot in between.
PRIORITY_HOST_ROUTE = 100
PRIORITY_POLICY = 200
PRIORITY_ACL = 300


class RoutingError(Exception):
    """Raised when a route cannot be computed (disconnected, bad endpoints)."""


class Controller:
    """The control plane: logical rule owner and FlowMod producer."""

    def __init__(self, topo: Topology, channel: Optional[Channel] = None) -> None:
        self.topo = topo
        self.channel = channel or Channel()
        self._graph = topo.switch_graph()

    # -- primitive rule operations ------------------------------------------

    def install(self, switch_id: str, rule: FlowRule) -> FlowRule:
        """Add a rule to the logical table and emit a FlowMod ADD."""
        self.topo.switch(switch_id).flow_table.add(rule)
        self.channel.send(FlowMod(FlowModOp.ADD, switch_id, rule))
        return rule

    def remove(self, switch_id: str, rule_id: int) -> FlowRule:
        """Remove a rule from the logical table and emit a FlowMod DELETE."""
        rule = self.topo.switch(switch_id).flow_table.remove(rule_id)
        self.channel.send(FlowMod(FlowModOp.DELETE, switch_id, rule))
        return rule

    def reissue(self, switch_id: str, rule_id: int) -> FlowRule:
        """Re-push an already-logical rule (a repair-time MODIFY).

        It changes nothing logically — it re-asserts the controller's copy
        against whatever the switch currently holds.
        """
        rule = self.topo.switch(switch_id).flow_table.get(rule_id)
        if rule is None:
            raise KeyError(f"no logical rule {rule_id} on {switch_id} to reissue")
        self.channel.send(FlowMod(FlowModOp.MODIFY, switch_id, rule))
        return rule

    def flush_switch(self, switch_id: str) -> None:
        """Send an all-wildcard delete for one switch's table."""
        self.topo.switch(switch_id)  # validate id
        self.channel.send(TableFlush(switch_id))

    def resync_switch(self, switch_id: str) -> int:
        """Flush a switch and re-install its entire logical table.

        The repair engine's heavy hammer: displaces foreign rules and
        restores every modified/deleted one.  Returns the rule count.
        """
        self.flush_switch(switch_id)
        rules = self.topo.switch(switch_id).flow_table.sorted_rules()
        for rule in rules:
            self.channel.send(FlowMod(FlowModOp.ADD, switch_id, rule))
        return len(rules)

    # -- route computation ----------------------------------------------------

    def shortest_switch_path(self, src_switch: str, dst_switch: str) -> List[str]:
        """Switch-level shortest path (hop count), deterministic tie-break."""
        if src_switch == dst_switch:
            return [src_switch]
        for switch_id in (src_switch, dst_switch):
            if switch_id not in self._graph:
                raise RoutingError(f"{switch_id} is not in {self.topo.name}")
        # Among equal-cost paths the choice follows neighbour order, which
        # is edge insertion in Topology.internal_links() order.
        path = self._graph.shortest_path(src_switch, dst_switch)
        if path is None:
            raise RoutingError(f"no path between {src_switch} and {dst_switch}")
        return path

    # -- intent compilers -----------------------------------------------------

    def install_destination_routes(
        self,
        subnets: Dict[str, str],
        priority: int = PRIORITY_HOST_ROUTE,
    ) -> List[FlowRule]:
        """Shortest-path forwarding to each host's subnet from every switch.

        ``subnets`` maps host id -> destination prefix string
        (``"10.0.1.0/24"``).  On the host's own switch the rule forwards out
        of the host port; elsewhere it forwards towards the next hop on the
        shortest path.  Returns every installed rule.
        """
        installed: List[FlowRule] = []
        for host_id, prefix in sorted(subnets.items()):
            attach = self.topo.host_port(host_id)
            next_hops = ecmp_next_hops(self._graph, attach.switch, seed=host_id)
            for switch_id in sorted(self.topo.switches):
                if switch_id == attach.switch:
                    out_port = attach.port
                else:
                    nxt = next_hops.get(switch_id)
                    if nxt is None:
                        continue  # switch cannot reach the host; leave a miss
                    out_port = self._graph.egress_port(switch_id, nxt)
                rule = FlowRule(
                    priority, Match.build(dst=prefix), Forward(out_port)
                )
                installed.append(self.install(switch_id, rule))
        return installed

    def install_path(
        self,
        match: Match,
        switch_path: Sequence[str],
        entry_port: int,
        exit_port: int,
        priority: int = PRIORITY_POLICY,
        pin_in_ports: bool = True,
    ) -> List[FlowRule]:
        """Pin ``match`` traffic along an explicit switch path.

        ``entry_port`` is the ingress port on the first switch;
        ``exit_port`` the egress on the last.  With ``pin_in_ports`` each
        rule also matches the ingress port, which is required when the path
        visits a switch more than once (middlebox hair-pinning, Figure 2 /
        the ``S1 -> S2 -> MB -> S2 -> S3`` example in Table 1).
        """
        if not switch_path:
            raise RoutingError("empty switch path")
        installed: List[FlowRule] = []
        in_port = entry_port
        for index, switch_id in enumerate(switch_path):
            if index + 1 < len(switch_path):
                nxt = switch_path[index + 1]
                if not self._graph.has_edge(switch_id, nxt):
                    raise RoutingError(
                        f"no link {switch_id} -> {nxt} in {self.topo.name}"
                    )
                out_port = self._graph.egress_port(switch_id, nxt)
            else:
                out_port = exit_port
            rule_match = (
                Match(
                    src_prefix=match.src_prefix,
                    dst_prefix=match.dst_prefix,
                    proto=match.proto,
                    src_port_range=match.src_port_range,
                    dst_port_range=match.dst_port_range,
                    in_port=in_port,
                )
                if pin_in_ports
                else match
            )
            installed.append(
                self.install(switch_id, FlowRule(priority, rule_match, Forward(out_port)))
            )
            if index + 1 < len(switch_path):
                peer = self.topo.link(PortRef(switch_id, out_port))
                if peer is None:
                    raise RoutingError(
                        f"port {switch_id}:{out_port} is not wired"
                    )
                in_port = peer.port
        return installed

    def install_waypoint_path(
        self,
        match: Match,
        src_host: str,
        waypoint_host: str,
        dst_host: str,
        priority: int = PRIORITY_POLICY,
    ) -> List[FlowRule]:
        """Route ``match`` from ``src_host`` through a middlebox to ``dst_host``.

        ``waypoint_host`` may be a transparent middlebox (preferred; see
        :meth:`Topology.add_middlebox`) or a plain host.  The compiled path
        is ``src -> ... -> mb_switch -> (mb port) -> mb_switch -> ... ->
        dst`` with ingress-port-pinned rules disambiguating the two visits.
        """
        src = self.topo.host_port(src_host)
        try:
            mb = self.topo.middlebox_port(waypoint_host)
        except KeyError:
            mb = self.topo.host_port(waypoint_host)
        dst = self.topo.host_port(dst_host)
        to_mb = self.shortest_switch_path(src.switch, mb.switch)
        from_mb = self.shortest_switch_path(mb.switch, dst.switch)
        rules = self.install_path(
            match, to_mb, entry_port=src.port, exit_port=mb.port, priority=priority
        )
        rules += self.install_path(
            match, from_mb, entry_port=mb.port, exit_port=dst.port, priority=priority
        )
        return rules

    def install_acl(
        self,
        switch_id: str,
        match: Match,
        priority: int = PRIORITY_ACL,
    ) -> FlowRule:
        """Drop ``match`` traffic at ``switch_id`` (an ACL deny as a rule)."""
        return self.install(switch_id, FlowRule(priority, match, Drop()))
