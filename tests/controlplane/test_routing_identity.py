"""Routes without networkx are the routes networkx picked.

``Topology.switch_graph()`` replaced the networkx graph on the serve path.
Among equal-cost paths the choice depends on expansion order, so these
tests pin the replacement to ``nx.shortest_path`` path for path, and the
path tables built on top of it to the fingerprints the networkx-routed
build produced.
"""

import networkx as nx
import pytest

from repro import persist
from repro.controlplane.controller import RoutingError, ecmp_next_hops
from repro.core import VeriDPServer
from repro.netmodel.topology import Topology
from repro.topologies import (
    build_fattree,
    build_grid,
    build_internet2,
    build_jellyfish,
    build_linear,
    build_ring,
    build_stanford,
    internet2_lpm_ruleset,
)
from repro.topologies.base import wire_scenario

TOPOLOGIES = {
    "stanford": lambda: build_stanford(subnets_per_zone=1, install_routes=False),
    "internet2": lambda: build_internet2(prefixes_per_pop=1, install_routes=False),
    "fattree4": lambda: build_fattree(4, install_routes=False),
    "grid3x3": lambda: build_grid(3, 3, install_routes=False),
    "linear5": lambda: build_linear(5, install_routes=False),
    "ring6": lambda: build_ring(6, install_routes=False),
    "jellyfish": lambda: build_jellyfish(12, 3, seed=3, install_routes=False),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_every_switch_pair_takes_the_networkx_path(name):
    scenario = TOPOLOGIES[name]()
    graph = scenario.topo.to_networkx()
    switches = sorted(scenario.topo.switches)
    for a in switches:
        for b in switches:
            assert scenario.controller.shortest_switch_path(a, b) == (
                nx.shortest_path(graph, a, b)
            ), (a, b)


def _two_islands() -> Topology:
    topo = Topology("islands")
    for sid in ("A", "B", "C", "D"):
        topo.add_switch(sid)
    topo.add_link("A", 1, "B", 1)
    topo.add_link("C", 1, "D", 1)
    return topo


def test_disconnected_and_unknown_raise_routing_error():
    controller = wire_scenario(_two_islands(), {}, {}, install_routes=False).controller
    assert controller.shortest_switch_path("A", "B") == ["A", "B"]
    with pytest.raises(RoutingError, match="no path between A and D"):
        controller.shortest_switch_path("A", "D")
    with pytest.raises(RoutingError, match="Z is not in islands"):
        controller.shortest_switch_path("A", "Z")
    with pytest.raises(RoutingError, match="Z is not in islands"):
        controller.shortest_switch_path("Z", "A")


def test_parallel_links_resolve_like_networkx():
    """First link keeps the neighbour slot, last link's ports win."""
    topo = Topology("parallel")
    for sid in ("A", "B", "C"):
        topo.add_switch(sid)
    topo.add_link("A", 1, "B", 1)
    topo.add_link("A", 2, "C", 1)
    topo.add_link("A", 3, "B", 2)
    ours, theirs = topo.switch_graph(), topo.to_networkx()
    for sid in topo.switches:
        assert list(ours.neighbors(sid)) == list(theirs.neighbors(sid))
    for a, b in theirs.edges:
        assert ours.has_edge(a, b) and ours.has_edge(b, a)
        assert ours.egress_port(a, b) == theirs.edges[a, b]["ports"][a]
        assert ours.egress_port(b, a) == theirs.edges[a, b]["ports"][b]
    assert not ours.has_edge("B", "C")
    assert not ours.has_edge("B", "nowhere")


def test_internet2_lpm_ruleset_equals_networkx_routing():
    scenario = build_internet2(prefixes_per_pop=2, install_routes=False)
    topo, graph = scenario.topo, scenario.topo.to_networkx()
    expected = {sid: [] for sid in topo.switches}
    for host_id, prefix in sorted(scenario.subnets.items()):
        attach = topo.host_port(host_id)
        next_hops = ecmp_next_hops(graph, attach.switch, seed=host_id)
        for sid in sorted(topo.switches):
            if sid == attach.switch:
                port = attach.port
            else:
                port = graph.edges[sid, next_hops[sid]]["ports"][sid]
            expected[sid].append((prefix, port))
    assert internet2_lpm_ruleset(scenario) == expected


#: ``persist.table_fingerprint`` of the full server build at the last commit
#: that routed through networkx (30afa45).
PINNED_FINGERPRINTS = {
    "stanford": (
        lambda: build_stanford(subnets_per_zone=2),
        "d93f744421f6b68d1ee812b76774fd57c31d485e",
    ),
    "stanford-lpm": (
        lambda: build_stanford(
            subnets_per_zone=2, with_acls=False, with_ssh_detours=False
        ),
        "7333376bfa2eabf12549b66c80af834d28a7ec2c",
    ),
    "fattree4": (
        lambda: build_fattree(4),
        "dea6d5ae0c57128e556d9649a5e4e57b23c7c5b2",
    ),
    "internet2": (
        lambda: build_internet2(prefixes_per_pop=2),
        "13d25a962a446ba846be01da62d62b2160e1ddc1",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
def test_path_table_fingerprint_is_pinned(name):
    build, expected = PINNED_FINGERPRINTS[name]
    scenario = build()
    server = VeriDPServer(scenario.topo, scenario.channel)
    assert persist.table_fingerprint(server.table, server.hs.bdd) == expected
