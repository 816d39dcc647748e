"""Shared fixtures for the cluster tier: a routed linear fabric plus
helpers that build wire payloads and node-shaped replica messages."""

import pytest

from repro.cluster.frontend import routing_key_of
from repro.core.replica import build_pair_spec, wire_packing
from repro.core.reports import pack_report
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_linear


@pytest.fixture
def rig():
    scenario = build_linear(4)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    return scenario, server, net


def healthy_payloads(scenario, net, count):
    """``count`` wire reports from healthy all-pairs traffic (cycled)."""
    pairs = scenario.host_pairs()
    base = []
    for src, dst in pairs:
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        base += [pack_report(r, net.codec) for r in result.reports]
    payloads = []
    while len(payloads) < count:
        payloads += base
    return payloads[:count]


def tagged_replica(server, tenant=""):
    """The whole table, each pair's spec tagged with its tenant:
    {wire: (spec, tenant)}."""
    replica = {}
    codec = server.codec
    for inport, outport in server.table.pairs():
        spec = build_pair_spec(server.table, server.hs, inport, outport)
        if spec is None:
            continue
        wire = (codec.encode(inport), codec.encode(outport))
        replica[wire] = (spec, tenant)
    return replica


def packing_of(server):
    return wire_packing(server.hs.layout)


def routing_key(frontend, payload):
    """The ring/placement key the frontend routes ``payload`` by."""
    pair_key = int.from_bytes(payload[2:6], "big")
    return routing_key_of(pair_key, frontend.tenant_of.get(pair_key))
