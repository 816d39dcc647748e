"""Small parametric topologies plus the paper's Figure 5 toy network."""

from __future__ import annotations

from typing import Dict, Tuple

from ..netmodel.packet import PROTO_TCP
from ..netmodel.rules import Drop, FlowRule, Forward, Match
from ..netmodel.topology import Topology
from .base import Scenario, wire_scenario

__all__ = [
    "build_linear",
    "build_ring",
    "build_star",
    "build_grid",
    "build_figure5",
    "build_random",
    "build_jellyfish",
]


def _host_plan(index: int) -> Tuple[str, str]:
    """(subnet, host ip) for the ``index``-th host: 10.<i>/24 blocks."""
    high, low = divmod(index, 256)
    subnet = f"10.{high}.{low}.0/24"
    ip = f"10.{high}.{low}.1"
    return subnet, ip


def _attach_hosts(topo: Topology, attachments) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Attach hosts and derive the addressing plan."""
    subnets: Dict[str, str] = {}
    host_ips: Dict[str, str] = {}
    for index, (host, switch, port) in enumerate(attachments):
        topo.add_host(host, switch, port)
        subnets[host], host_ips[host] = _host_plan(index)
    return subnets, host_ips


def build_linear(num_switches: int = 3, install_routes: bool = True) -> Scenario:
    """``S1 - S2 - ... - Sn`` with one host per switch.

    Port plan: port 1 hosts, port 2 towards the next switch, port 3 towards
    the previous one.
    """
    if num_switches < 2:
        raise ValueError(f"need at least 2 switches, got {num_switches}")
    topo = Topology(f"linear-{num_switches}")
    names = [f"S{i}" for i in range(1, num_switches + 1)]
    for name in names:
        topo.add_switch(name, num_ports=3)
    for left, right in zip(names, names[1:]):
        topo.add_link(left, 2, right, 3)
    attachments = [(f"H{i + 1}", name, 1) for i, name in enumerate(names)]
    subnets, host_ips = _attach_hosts(topo, attachments)
    return wire_scenario(topo, subnets, host_ips, install_routes, notes="linear chain")


def build_ring(num_switches: int = 4, install_routes: bool = True) -> Scenario:
    """A cycle of switches, one host each — the topology *contains loops*,
    making it the natural fixture for loop-detection tests."""
    if num_switches < 3:
        raise ValueError(f"a ring needs at least 3 switches, got {num_switches}")
    topo = Topology(f"ring-{num_switches}")
    names = [f"S{i}" for i in range(1, num_switches + 1)]
    for name in names:
        topo.add_switch(name, num_ports=3)
    for i, name in enumerate(names):
        topo.add_link(name, 2, names[(i + 1) % num_switches], 3)
    attachments = [(f"H{i + 1}", name, 1) for i, name in enumerate(names)]
    subnets, host_ips = _attach_hosts(topo, attachments)
    return wire_scenario(topo, subnets, host_ips, install_routes, notes="ring")


def build_star(num_leaves: int = 4, install_routes: bool = True) -> Scenario:
    """A hub switch with ``num_leaves`` leaf switches, one host per leaf."""
    if num_leaves < 2:
        raise ValueError(f"need at least 2 leaves, got {num_leaves}")
    topo = Topology(f"star-{num_leaves}")
    topo.add_switch("HUB", num_ports=num_leaves)
    for i in range(1, num_leaves + 1):
        leaf = f"L{i}"
        topo.add_switch(leaf, num_ports=2)
        topo.add_link("HUB", i, leaf, 2)
    attachments = [(f"H{i}", f"L{i}", 1) for i in range(1, num_leaves + 1)]
    subnets, host_ips = _attach_hosts(topo, attachments)
    return wire_scenario(topo, subnets, host_ips, install_routes, notes="star")


def build_grid(width: int = 3, height: int = 3, install_routes: bool = True) -> Scenario:
    """A ``width x height`` mesh; hosts on the four corner switches.

    Port plan per switch: 1 host, 2 east, 3 west, 4 south, 5 north.
    """
    if width < 2 or height < 2:
        raise ValueError(f"grid must be at least 2x2, got {width}x{height}")
    topo = Topology(f"grid-{width}x{height}")

    def name(x: int, y: int) -> str:
        return f"S{x}_{y}"

    for y in range(height):
        for x in range(width):
            topo.add_switch(name(x, y), num_ports=5)
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                topo.add_link(name(x, y), 2, name(x + 1, y), 3)
            if y + 1 < height:
                topo.add_link(name(x, y), 4, name(x, y + 1), 5)
    corners = [
        (0, 0),
        (width - 1, 0),
        (0, height - 1),
        (width - 1, height - 1),
    ]
    attachments = [
        (f"H{i + 1}", name(x, y), 1) for i, (x, y) in enumerate(corners)
    ]
    subnets, host_ips = _attach_hosts(topo, attachments)
    return wire_scenario(topo, subnets, host_ips, install_routes, notes="grid mesh")


def build_random(
    num_switches: int = 8,
    extra_links: int = 4,
    hosts: int = 4,
    seed: int = 0,
    install_routes: bool = True,
) -> Scenario:
    """A connected random topology: spanning tree + random extra links.

    Deterministic for a given ``seed``.  Hosts are spread round-robin over
    the switches.  Useful for fuzz-style experiments where the regular
    structures (fat tree, backbone) would mask corner cases.
    """
    import random as _random

    if num_switches < 2:
        raise ValueError(f"need at least 2 switches, got {num_switches}")
    if hosts < 1:
        raise ValueError(f"need at least 1 host, got {hosts}")
    rng = _random.Random(seed)
    topo = Topology(f"random-{num_switches}-{seed}")
    names = [f"R{i}" for i in range(num_switches)]
    next_port = {}
    for name in names:
        topo.add_switch(name)
        next_port[name] = 1

    def wire(a: str, b: str) -> None:
        topo.add_link(a, next_port[a], b, next_port[b])
        next_port[a] += 1
        next_port[b] += 1

    # Random spanning tree: attach each new switch to a random earlier one.
    for i in range(1, num_switches):
        wire(names[rng.randrange(i)], names[i])
    # Extra links between distinct, not-yet-adjacent pairs.
    added = 0
    attempts = 0
    while added < extra_links and attempts < 50 * extra_links:
        attempts += 1
        a, b = rng.sample(names, 2)
        if b in topo.neighbors(a):
            continue
        wire(a, b)
        added += 1

    attachments = []
    for h in range(hosts):
        switch = names[h % num_switches]
        attachments.append((f"H{h + 1}", switch, next_port[switch]))
        next_port[switch] += 1
    subnets, host_ips = _attach_hosts(topo, attachments)
    return wire_scenario(
        topo, subnets, host_ips, install_routes, notes=f"random seed={seed}"
    )


def build_jellyfish(
    num_switches: int = 10,
    degree: int = 3,
    hosts: int = 5,
    seed: int = 0,
    install_routes: bool = True,
) -> Scenario:
    """A jellyfish-style random regular graph (degree-``degree`` switches).

    Built with networkx's random regular graph generator; hosts round-robin
    on extra ports.  Jellyfish topologies stress ECMP routing diversity.
    """
    try:
        import networkx as _nx
    except ImportError:
        raise ImportError(
            "build_jellyfish needs networkx: install the 'dev' extra "
            "(pip install -e '.[dev]')"
        ) from None

    if num_switches * degree % 2:
        raise ValueError("num_switches * degree must be even for a regular graph")
    graph = _nx.random_regular_graph(degree, num_switches, seed=seed)
    if not _nx.is_connected(graph):
        raise ValueError(
            f"seed {seed} produced a disconnected jellyfish; pick another"
        )
    topo = Topology(f"jellyfish-{num_switches}x{degree}-{seed}")
    names = {node: f"J{node}" for node in graph.nodes}
    next_port = {}
    for node in sorted(graph.nodes):
        topo.add_switch(names[node])
        next_port[names[node]] = 1
    for a, b in sorted(graph.edges):
        sa, sb = names[a], names[b]
        topo.add_link(sa, next_port[sa], sb, next_port[sb])
        next_port[sa] += 1
        next_port[sb] += 1
    attachments = []
    ordered = sorted(names.values())
    for h in range(hosts):
        switch = ordered[h % len(ordered)]
        attachments.append((f"H{h + 1}", switch, next_port[switch]))
        next_port[switch] += 1
    subnets, host_ips = _attach_hosts(topo, attachments)
    return wire_scenario(
        topo, subnets, host_ips, install_routes, notes=f"jellyfish seed={seed}"
    )


def build_figure5() -> Scenario:
    """The paper's Figure 5 toy network, rules included verbatim.

    Three switches; H1/H2 behind S1, H3 behind S3, a middlebox on S2.
    SSH traffic (dst_port 22) from S1 port 1 detours through the middlebox;
    everything else towards 10.0.2.0/24 goes directly to S3; S3 drops all
    traffic from H2 (10.0.1.2).  The resulting path table fragment is the
    paper's Table 1.

    Port plan:
      S1: 1 = H1, 2 = H2, 3 -> S2, 4 -> S3
      S2: 1 <- S1, 2 -> S3, 3 = middlebox
      S3: 1 <- S2, 3 <- S1 (paper's figure), 2 = H3
    """
    topo = Topology("figure5")
    topo.add_switch("S1", num_ports=4)
    topo.add_switch("S2", num_ports=3)
    topo.add_switch("S3", num_ports=3)
    topo.add_link("S1", 3, "S2", 1)
    topo.add_link("S2", 2, "S3", 1)
    topo.add_link("S1", 4, "S3", 3)
    topo.add_host("H1", "S1", 1)
    topo.add_host("H2", "S1", 2)
    topo.add_host("H3", "S3", 2)
    topo.add_middlebox("MB", "S2", 3)

    subnets = {"H1": "10.0.1.1/32", "H2": "10.0.1.2/32", "H3": "10.0.2.0/24"}
    host_ips = {"H1": "10.0.1.1", "H2": "10.0.1.2", "H3": "10.0.2.1"}

    scenario = wire_scenario(topo, subnets, host_ips, install_routes=False)
    ctrl = scenario.controller
    # Rule numbering follows Figure 5.
    # S1: R3 redirects SSH to S2; R4 forwards the rest of 10.0.2/24 to S3.
    ctrl.install("S1", FlowRule(200, Match.build(dst="10.0.2.0/24", dst_port=22, proto=PROTO_TCP), Forward(3)))
    ctrl.install("S1", FlowRule(100, Match.build(dst="10.0.2.0/24"), Forward(4)))
    # S2: R5 directs traffic from port 1 to the middlebox; R6 returns
    # middlebox traffic (port 3) towards S3.
    ctrl.install("S2", FlowRule(100, Match.build(dst="10.0.2.0/24", in_port=1), Forward(3)))
    ctrl.install("S2", FlowRule(100, Match.build(dst="10.0.2.0/24", in_port=3), Forward(2)))
    # S3: R8 drops all traffic from H2; R7/R9 deliver to H3.
    ctrl.install("S3", FlowRule(200, Match.build(src="10.0.1.2/32"), Drop()))
    ctrl.install("S3", FlowRule(100, Match.build(dst="10.0.2.0/24"), Forward(2)))
    scenario.notes = "Figure 5 toy network (Table 1 path table)"
    return scenario
