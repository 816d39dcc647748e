"""Shared fixtures: a routed linear fabric partitioned into two tenants."""

import pytest

from repro.core.server import VeriDPServer
from repro.slice.registry import SliceRegistry, TenantSpec
from repro.topologies import build_linear
from repro.topologies.base import lpm_ruleset_for


@pytest.fixture
def scenario():
    return build_linear(4, install_routes=False)


@pytest.fixture
def server(scenario):
    """An incremental server with the base LPM ruleset installed."""
    srv = VeriDPServer(scenario.topo, channel=None, incremental=True)
    ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
    for switch in sorted(ruleset):
        for prefix, port in ruleset[switch]:
            srv.apply_rule_update(switch, prefix, port)
    return srv


@pytest.fixture
def hosts(scenario):
    return sorted(scenario.subnets)


def two_tenant_registry(server, scenario, hosts):
    registry = SliceRegistry(server.hs, scenario.topo)
    registry.register(
        TenantSpec(
            name="red",
            prefixes=(scenario.subnets[hosts[0]], scenario.subnets[hosts[1]]),
            hosts=(hosts[0], hosts[1]),
            queue_share=0.25,
        )
    )
    registry.register(
        TenantSpec(
            name="blue",
            prefixes=(scenario.subnets[hosts[2]], scenario.subnets[hosts[3]]),
            hosts=(hosts[2], hosts[3]),
        )
    )
    return registry


@pytest.fixture
def registry(server, scenario, hosts):
    return two_tenant_registry(server, scenario, hosts)
