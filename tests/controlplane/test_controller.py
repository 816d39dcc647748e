"""Unit tests for the controller's intent compilers."""

import pytest

from repro.controlplane.controller import RoutingError, ecmp_next_hops
from repro.controlplane.messages import FlowModOp
from repro.dataplane import DataPlaneNetwork
from repro.netmodel.rules import FlowRule, Forward, Match
from repro.topologies import build_fattree, build_figure5, build_grid, build_linear


class TestPrimitives:
    def test_install_updates_logical_table_and_channel(self):
        scenario = build_linear(3, install_routes=False)
        rule = scenario.controller.install(
            "S1", FlowRule(10, Match.build(dst="10.0.0.0/8"), Forward(2))
        )
        assert rule.rule_id in scenario.topo.switch("S1").flow_table
        mods = scenario.channel.history
        assert mods[-1].op is FlowModOp.ADD
        assert mods[-1].rule is rule

    def test_remove(self):
        scenario = build_linear(3, install_routes=False)
        rule = scenario.controller.install(
            "S1", FlowRule(10, Match(), Forward(2))
        )
        removed = scenario.controller.remove("S1", rule.rule_id)
        assert removed is rule
        assert rule.rule_id not in scenario.topo.switch("S1").flow_table
        assert scenario.channel.history[-1].op is FlowModOp.DELETE


class TestShortestPaths:
    def test_path_endpoints(self):
        scenario = build_linear(4, install_routes=False)
        path = scenario.controller.shortest_switch_path("S1", "S4")
        assert path == ["S1", "S2", "S3", "S4"]

    def test_same_switch(self):
        scenario = build_linear(3, install_routes=False)
        assert scenario.controller.shortest_switch_path("S2", "S2") == ["S2"]

    def test_no_path_raises(self):
        from repro.netmodel.topology import Topology
        from repro.topologies.base import wire_scenario

        topo = Topology("disconnected")
        topo.add_switch("A", num_ports=2)
        topo.add_switch("B", num_ports=2)
        topo.add_host("H1", "A", 1)
        topo.add_host("H2", "B", 1)
        scenario = wire_scenario(topo, {}, {}, install_routes=False)
        with pytest.raises(RoutingError):
            scenario.controller.shortest_switch_path("A", "B")

    def test_unknown_switch_raises(self):
        scenario = build_linear(3, install_routes=False)
        with pytest.raises(RoutingError):
            scenario.controller.shortest_switch_path("S1", "S9")


class TestEcmp:
    def test_next_hops_cover_all_reachable(self):
        scenario = build_fattree(4, install_routes=False)
        graph = scenario.topo.to_networkx()
        hops = ecmp_next_hops(graph, "e0_0", seed="x")
        assert set(hops) == set(graph.nodes) - {"e0_0"}

    def test_next_hops_are_shortest(self):
        import networkx as nx

        scenario = build_fattree(4, install_routes=False)
        graph = scenario.topo.to_networkx()
        hops = ecmp_next_hops(graph, "e0_0", seed="y")
        dist = nx.shortest_path_length(graph, target="e0_0")
        for node, nxt in hops.items():
            assert dist[nxt] == dist[node] - 1

    def test_different_seeds_diversify(self):
        scenario = build_fattree(4, install_routes=False)
        graph = scenario.topo.to_networkx()
        choices = {
            ecmp_next_hops(graph, "e0_0", seed=f"h{i}")["e3_1"] for i in range(16)
        }
        assert len(choices) > 1  # equal-cost ties actually spread

    def test_deterministic_per_seed(self):
        scenario = build_fattree(4, install_routes=False)
        graph = scenario.topo.to_networkx()
        assert ecmp_next_hops(graph, "e0_0", "s") == ecmp_next_hops(graph, "e0_0", "s")


class TestDestinationRoutes:
    def test_all_pairs_connectivity(self):
        scenario = build_grid(2, 2)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        for src, dst in scenario.host_pairs():
            result = net.inject_from_host(src, scenario.header_between(src, dst))
            assert result.status == "delivered", f"{src}->{dst}: {result.status}"
            assert result.delivered_to == dst

    def test_rule_count(self):
        scenario = build_linear(3, install_routes=False)
        rules = scenario.controller.install_destination_routes(scenario.subnets)
        # 3 hosts x 3 switches, all reachable
        assert len(rules) == 9


class TestExplicitPaths:
    def test_install_path_rules_pin_in_ports(self):
        scenario = build_linear(3, install_routes=False)
        rules = scenario.controller.install_path(
            Match.build(dst="10.0.2.0/24"),
            ["S1", "S2", "S3"],
            entry_port=1,
            exit_port=1,
        )
        assert len(rules) == 3
        assert all(r.match.in_port is not None for r in rules)

    def test_install_path_rejects_unlinked_hop(self):
        scenario = build_linear(3, install_routes=False)
        with pytest.raises(RoutingError):
            scenario.controller.install_path(
                Match(), ["S1", "S3"], entry_port=1, exit_port=1
            )

    def test_install_path_rejects_empty(self):
        scenario = build_linear(3, install_routes=False)
        with pytest.raises(RoutingError):
            scenario.controller.install_path(Match(), [], 1, 1)

    def test_waypoint_path_through_middlebox(self):
        scenario = build_figure5()
        # Re-pin H2's traffic through the middlebox instead of dropping it.
        rules = scenario.controller.install_waypoint_path(
            Match.build(src="10.0.1.2/32"), "H2", "MB", "H3", priority=500
        )
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        result = net.inject_from_host("H2", scenario.header_between("H2", "H3"))
        assert result.status == "delivered"
        switches = [h.switch for h in result.hops]
        assert switches.count("S2") == 2  # hair-pin through the middlebox

    def test_install_acl_drops(self):
        scenario = build_linear(3)
        scenario.controller.install_acl("S2", Match.build(dst_port=23))
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        result = net.inject_from_host(
            "H1", scenario.header_between("H1", "H3", dst_port=23)
        )
        assert result.status == "dropped"
        assert result.hops[-1].switch == "S2"

    def test_te_split(self):
        scenario = build_grid(2, 2, install_routes=False)
        # Two corner-to-corner paths: via S1_0 and via S0_1.
        ctrl = scenario.controller
        # Disjoint selectors (source-port halves) of one aggregate.
        rules_a = ctrl.install_path(
            Match.build(dst="10.0.3.0/24", src_port=(0, 32767)),
            ["S0_0", "S1_0", "S1_1"],
            entry_port=1,
            exit_port=1,
        )
        rules_b = ctrl.install_path(
            Match.build(dst="10.0.3.0/24", src_port=(32768, 65535)),
            ["S0_0", "S0_1", "S1_1"],
            entry_port=1,
            exit_port=1,
        )
        assert len(rules_a) == 3 and len(rules_b) == 3
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        low = net.inject_from_host(
            "H1", scenario.header_between("H1", "H4", src_port=100)
        )
        high = net.inject_from_host(
            "H1", scenario.header_between("H1", "H4", src_port=60000)
        )
        assert [h.switch for h in low.hops] == ["S0_0", "S1_0", "S1_1"]
        assert [h.switch for h in high.hops] == ["S0_0", "S0_1", "S1_1"]
