"""Topology (de)serialisation.

Lets users bring their own networks: a :class:`~repro.netmodel.topology.Topology`
plus the host addressing plan round-trips through a plain JSON document, so
scenarios can be version-controlled, shared, and fed to the CLI.

Only the *structure* is serialised (switches, ports, links, hosts,
middleboxes, subnets); flow tables are controller state and are recompiled
on load by whoever owns the intent.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from ..netmodel.topology import Topology
from .base import Scenario, wire_scenario

__all__ = ["topology_to_dict", "topology_from_dict", "save_scenario", "load_scenario"]

_FORMAT_VERSION = 1


def topology_to_dict(
    topo: Topology,
    subnets: Optional[Dict[str, str]] = None,
    host_ips: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Serialise structure + addressing into a JSON-ready dict."""
    return {
        "format_version": _FORMAT_VERSION,
        "name": topo.name,
        "switches": {
            switch_id: sorted(info.ports)
            for switch_id, info in sorted(topo.switches.items())
        },
        "links": [
            [a.switch, a.port, b.switch, b.port]
            for a, b in topo.internal_links()
        ],
        "hosts": {
            host: [ref.switch, ref.port]
            for host in topo.hosts()
            for ref in [topo.host_port(host)]
        },
        "middleboxes": {
            mb: [ref.switch, ref.port]
            for mb in topo.middleboxes()
            for ref in [topo.middlebox_port(mb)]
        },
        "subnets": dict(subnets or {}),
        "host_ips": dict(host_ips or {}),
    }


def topology_from_dict(data: Dict[str, Any]) -> Tuple[Topology, Dict[str, str], Dict[str, str]]:
    """Rebuild ``(topology, subnets, host_ips)`` from a serialised dict."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported topology format version {version!r}")
    topo = Topology(data.get("name", "net"))
    for switch_id, ports in data["switches"].items():
        topo.add_switch(switch_id)
        for port in ports:
            topo.add_port(switch_id, port)
    for a_switch, a_port, b_switch, b_port in data.get("links", []):
        topo.add_link(a_switch, a_port, b_switch, b_port)
    for host, (switch_id, port) in sorted(data.get("hosts", {}).items()):
        topo.add_host(host, switch_id, port)
    for mb, (switch_id, port) in sorted(data.get("middleboxes", {}).items()):
        topo.add_middlebox(mb, switch_id, port)
    topo.validate()
    return topo, dict(data.get("subnets", {})), dict(data.get("host_ips", {}))


def save_scenario(scenario: Scenario, path: str) -> None:
    """Write a scenario's structure + addressing to a JSON file."""
    document = topology_to_dict(scenario.topo, scenario.subnets, scenario.host_ips)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)


def load_scenario(path: str, install_routes: bool = True) -> Scenario:
    """Load a scenario from JSON and (optionally) recompile host routes."""
    with open(path) as handle:
        data = json.load(handle)
    topo, subnets, host_ips = topology_from_dict(data)
    return wire_scenario(topo, subnets, host_ips, install_routes=install_routes)
