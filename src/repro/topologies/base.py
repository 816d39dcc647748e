"""Shared scaffolding for the bundled topologies.

A :class:`Scenario` bundles everything one experiment needs: the topology,
the control channel, a controller with routes already compiled, and the host
addressing plan.  Builders in this package return Scenarios so examples,
tests and benchmarks construct identical networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..controlplane.controller import Controller
from ..controlplane.messages import Channel
from ..netmodel.packet import Header, PROTO_TCP
from ..netmodel.topology import Topology

__all__ = ["Scenario", "wire_scenario", "lpm_ruleset_for"]


@dataclass
class Scenario:
    """A ready-to-run network: topology + controller + addressing plan."""

    topo: Topology
    channel: Channel
    controller: Controller
    subnets: Dict[str, str]  # host id -> "a.b.c.d/len" home subnet
    host_ips: Dict[str, str]  # host id -> concrete address text
    notes: str = ""

    def header_between(
        self,
        src_host: str,
        dst_host: str,
        proto: int = PROTO_TCP,
        src_port: int = 10000,
        dst_port: int = 80,
    ) -> Header:
        """A concrete 5-tuple from one host's address to another's."""
        return Header.from_strings(
            self.host_ips[src_host],
            self.host_ips[dst_host],
            proto,
            src_port,
            dst_port,
        )

    def host_pairs(self) -> List[Tuple[str, str]]:
        """All ordered (src, dst) host pairs — the all-pairs ping workload."""
        hosts = self.topo.hosts()
        return [(a, b) for a in hosts for b in hosts if a != b]


def wire_scenario(
    topo: Topology,
    subnets: Dict[str, str],
    host_ips: Dict[str, str],
    install_routes: bool = True,
    notes: str = "",
) -> Scenario:
    """Create channel + controller and (optionally) install host routes."""
    channel = Channel()
    controller = Controller(topo, channel)
    scenario = Scenario(
        topo=topo,
        channel=channel,
        controller=controller,
        subnets=subnets,
        host_ips=host_ips,
        notes=notes,
    )
    if install_routes:
        controller.install_destination_routes(subnets)
    return scenario


def lpm_ruleset_for(
    topo: Topology, subnets: Dict[str, str]
) -> Dict[str, List[Tuple[str, int]]]:
    """Destination-prefix rule sets per switch, shortest-path routed.

    Returns ``{switch_id: [(prefix, out_port), ...]}`` — the input format of
    the incremental-update machinery (:class:`repro.core.incremental.LpmProvider`),
    equivalent to what :meth:`Controller.install_destination_routes` would
    install as flow rules.
    """
    from ..controlplane.controller import ecmp_next_hops

    graph = topo.switch_graph()
    ruleset: Dict[str, List[Tuple[str, int]]] = {
        sid: [] for sid in topo.switches
    }
    for host_id, prefix in sorted(subnets.items()):
        attach = topo.host_port(host_id)
        next_hops = ecmp_next_hops(graph, attach.switch, seed=host_id)
        for switch_id in sorted(topo.switches):
            if switch_id == attach.switch:
                out_port = attach.port
            else:
                nxt = next_hops.get(switch_id)
                if nxt is None:
                    continue
                out_port = graph.egress_port(switch_id, nxt)
            ruleset[switch_id].append((prefix, out_port))
    return ruleset
