"""Tests for the policy-query API over the path table."""

import pytest

from repro.bdd.headerspace import HeaderSpace
from repro.core.pathtable import PathTableBuilder
from repro.core.queries import PolicyChecker
from repro.netmodel.rules import Match
from repro.topologies import build_fattree, build_figure5, build_linear, build_stanford


@pytest.fixture(scope="module")
def figure5_checker():
    scenario = build_figure5()
    hs = HeaderSpace()
    table = PathTableBuilder(scenario.topo, hs).build()
    return scenario, PolicyChecker(table, hs, scenario.topo)


@pytest.fixture(scope="module")
def stanford_checker():
    scenario = build_stanford(subnets_per_zone=1)
    hs = HeaderSpace()
    table = PathTableBuilder(scenario.topo, hs).build()
    return scenario, PolicyChecker(table, hs, scenario.topo)


class TestReachability:
    def test_reachable_pair(self, figure5_checker):
        scenario, checker = figure5_checker
        result = checker.reachability("H1", "H3")
        assert result.holds
        assert result.witnesses

    def test_headers_filter(self, figure5_checker):
        scenario, checker = figure5_checker
        # SSH from H1 reaches H3 (via the middlebox).
        assert checker.reachability(
            "H1", "H3", Match.build(src="10.0.1.1/32", dst_port=22)
        ).holds

    def test_unreachable_header_space(self, figure5_checker):
        scenario, checker = figure5_checker
        # Traffic to an address outside every rule never reaches H3.
        result = checker.reachability("H1", "H3", Match.build(dst="99.0.0.0/8"))
        assert not result.holds

    def test_accepts_port_refs(self, figure5_checker):
        scenario, checker = figure5_checker
        src = scenario.topo.host_port("H1")
        dst = scenario.topo.host_port("H3")
        assert checker.reachability(src, dst).holds


class TestIsolation:
    def test_acl_enforced_isolation(self, figure5_checker):
        """H2's traffic to H3 is dropped at S3: isolation holds."""
        scenario, checker = figure5_checker
        result = checker.isolation("H2", "H3", Match.build(src="10.0.1.2/32"))
        assert result.holds

    def test_leak_reported_as_violation(self, figure5_checker):
        scenario, checker = figure5_checker
        result = checker.isolation("H1", "H3")
        assert not result.holds
        assert result.violations  # the delivering paths are the evidence

    def test_stanford_private_space_isolation(self, stanford_checker):
        """The sozb ACL denies 10/8: no path from sozb's host to cozb's
        10.63.16.0/20 subnet exists in the configuration."""
        scenario, checker = stanford_checker
        result = checker.isolation(
            "h_sozb_0", "h_cozb_0", Match.build(dst="10.0.0.0/8")
        )
        assert result.holds


class TestBlackHoles:
    def test_unroutable_space_is_reported(self, figure5_checker):
        scenario, checker = figure5_checker
        result = checker.black_holes("H1")
        assert not result.holds  # the all-match query includes unroutable space
        drop_switches = {o.switch for _, o, _ in result.violations}
        assert drop_switches  # and names the dropping switches

    def test_routed_traffic_is_blackhole_free(self, figure5_checker):
        scenario, checker = figure5_checker
        result = checker.black_holes(
            "H1", Match.build(src="10.0.1.1/32", dst="10.0.2.0/24")
        )
        assert result.holds

    def test_acl_drop_located(self, stanford_checker):
        scenario, checker = stanford_checker
        result = checker.black_holes("h_sozb_0", Match.build(dst="10.63.16.0/20"))
        assert not result.holds
        assert any(o.switch == "sozb" for _, o, _ in result.violations)


class TestWaypoint:
    def test_ssh_must_cross_middlebox(self, figure5_checker):
        """Figure 2's intent on the Figure 5 network: SSH traverses MB."""
        scenario, checker = figure5_checker
        result = checker.waypoint(
            "H1", "H3", "MB", Match.build(dst_port=22, proto=6)
        )
        assert result.holds

    def test_http_bypasses_middlebox(self, figure5_checker):
        scenario, checker = figure5_checker
        result = checker.waypoint("H1", "H3", "MB", Match.build(dst_port=80))
        assert not result.holds
        assert result.violations

    def test_switch_waypoint(self, figure5_checker):
        scenario, checker = figure5_checker
        # All H1 -> H3 traffic passes S1 trivially (it's the entry switch).
        assert checker.waypoint("H1", "H3", "S1").holds

    def test_no_traffic_means_not_holding(self, figure5_checker):
        scenario, checker = figure5_checker
        result = checker.waypoint("H1", "H3", "MB", Match.build(dst="99.0.0.0/8"))
        assert not result.holds  # vacuous policies don't "hold"


class TestDiversityAndLength:
    def test_te_split_detected(self):
        """Figure 3's TE intent: the split traffic uses >= 2 distinct paths."""
        from repro.netmodel.rules import FlowRule, Forward
        from repro.netmodel.topology import Topology
        from repro.topologies.base import wire_scenario

        topo = Topology("diamond")
        for sid in ("S1", "S2", "S3", "S4"):
            topo.add_switch(sid, num_ports=3)
        topo.add_link("S1", 2, "S2", 1)
        topo.add_link("S1", 3, "S3", 1)
        topo.add_link("S2", 2, "S4", 2)
        topo.add_link("S3", 2, "S4", 3)
        topo.add_host("SRC", "S1", 1)
        topo.add_host("DST", "S4", 1)
        scenario = wire_scenario(
            topo, {"SRC": "10.0.1.0/24", "DST": "10.0.2.0/24"},
            {"SRC": "10.0.1.1", "DST": "10.0.2.1"}, install_routes=False,
        )
        ctrl = scenario.controller
        ctrl.install_path(Match.build(dst="10.0.2.0/24"), ["S1", "S3", "S4"],
                          1, 1, priority=200)
        ctrl.install_path(Match.build(dst="10.0.2.0/24", src_port=(0, 1023)),
                          ["S1", "S2", "S4"], 1, 1, priority=300)
        hs = HeaderSpace()
        table = PathTableBuilder(scenario.topo, hs).build()
        checker = PolicyChecker(table, hs, scenario.topo)
        paths = checker.path_diversity("SRC", "DST", Match.build(dst="10.0.2.0/24"))
        assert len(paths) == 2

    def test_single_path_network(self):
        scenario = build_linear(3)
        hs = HeaderSpace()
        table = PathTableBuilder(scenario.topo, hs).build()
        checker = PolicyChecker(table, hs, scenario.topo)
        paths = checker.path_diversity("H1", "H3")
        assert len(paths) == 1

    def test_max_path_length(self, figure5_checker):
        scenario, checker = figure5_checker
        # The SSH detour S1 -> S2 -> MB -> S2 -> S3 is the longest: 4 hops.
        assert checker.max_path_length() == 4
        assert checker.max_path_length(Match.build(dst_port=80)) <= 3

    def test_fattree_ttl_dimensioning(self):
        """The query gives a tighter TTL than the topology bound."""
        scenario = build_fattree(4)
        hs = HeaderSpace()
        table = PathTableBuilder(scenario.topo, hs).build()
        checker = PolicyChecker(table, hs, scenario.topo)
        assert checker.max_path_length() == 5  # edge-agg-core-agg-edge
        assert checker.max_path_length() < scenario.topo.diameter_bound()


class TestQueryResult:
    def test_bool_and_str(self, figure5_checker):
        _, checker = figure5_checker
        result = checker.reachability("H1", "H3")
        assert bool(result)
        assert "HOLDS" in str(result)
        bad = checker.isolation("H1", "H3")
        assert "VIOLATED" in str(bad)
