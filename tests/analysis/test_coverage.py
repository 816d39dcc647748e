"""Tests for the verification-coverage tracker."""

import pytest

from repro.analysis.coverage import CoverageTracker
from repro.baselines import AtpgProber
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_fattree, build_linear


@pytest.fixture
def rig():
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    tracker = CoverageTracker(server.table)
    return scenario, server, net, tracker


def run_flow(scenario, server, net, tracker, src, dst):
    delivery = net.inject_from_host(src, scenario.header_between(src, dst))
    for report in delivery.reports:
        tracker.observe(server.verifier.verify(report))


class TestTracking:
    def test_empty_tracker_zero_coverage(self, rig):
        _, _, _, tracker = rig
        report = tracker.report()
        assert report.path_coverage == 0.0
        assert report.hop_coverage == 0.0
        assert report.verified_paths == 0
        assert len(report.dark_paths) == report.total_paths

    def test_one_flow_partial_coverage(self, rig):
        scenario, server, net, tracker = rig
        run_flow(scenario, server, net, tracker, "H1", "H3")
        report = tracker.report()
        assert report.verified_paths == 1
        assert 0 < report.path_coverage < 1
        assert report.verified_hops == 3  # S1 -> S2 -> S3

    def test_all_pairs_covers_delivery_paths(self, rig):
        scenario, server, net, tracker = rig
        for src, dst in scenario.host_pairs():
            run_flow(scenario, server, net, tracker, src, dst)
        report = tracker.report()
        # Inter-host delivery paths covered; drop paths (unroutable space)
        # and hairpin self-pairs (host to its own subnet) stay dark.
        from repro.netmodel.rules import DROP_PORT

        host_ports = {scenario.topo.host_port(h) for h in scenario.topo.hosts()}
        dark_delivery = [
            (i, o)
            for i, o, _ in report.dark_paths
            if o.port != DROP_PORT and i != o
            and i in host_ports and o in host_ports
        ]
        assert dark_delivery == []
        assert report.path_coverage < 1.0  # drop/hairpin/unwired entries

    def test_failed_verifications_do_not_count(self, rig):
        scenario, server, net, tracker = rig
        from repro.dataplane import ModifyRuleOutput

        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        run_flow(scenario, server, net, tracker, "H1", "H3")
        assert tracker.report().verified_paths == 0
        assert tracker.observations >= 1

    def test_switch_coverage_fractions(self, rig):
        scenario, server, net, tracker = rig
        run_flow(scenario, server, net, tracker, "H1", "H2")  # S1 -> S2 only
        report = tracker.report()
        assert 0 < report.switch_coverage["S1"] <= 1
        assert report.switch_coverage["S3"] == 0.0

    def test_reset(self, rig):
        scenario, server, net, tracker = rig
        run_flow(scenario, server, net, tracker, "H1", "H3")
        tracker.reset()
        assert tracker.report().verified_paths == 0

    def test_str(self, rig):
        _, _, _, tracker = rig
        assert "coverage:" in str(tracker.report())


class TestAtpgFillsTheGap:
    def test_probing_closes_dark_hops(self):
        """The composition the module docstring promises — with ATPG's real
        guarantee: its hop-covering probe set verifies every deliverable
        *hop*, while some *paths* stay dark (greedy cover prunes probes
        whose hop sets add nothing — exactly the path-blindness the paper
        criticises ATPG for)."""
        scenario = build_fattree(4)
        server = VeriDPServer(scenario.topo, scenario.channel)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        tracker = CoverageTracker(server.table)

        # Sparse passive traffic: a handful of flows.
        hosts = scenario.topo.hosts()
        for src, dst in zip(hosts[:4], hosts[4:8]):
            delivery = net.inject_from_host(src, scenario.header_between(src, dst))
            for report in delivery.reports:
                tracker.observe(server.verifier.verify(report))
        sparse = tracker.report()
        assert sparse.path_coverage < 0.5

        # Active fill: run every ATPG probe through the network.  The
        # prober must share the server's HeaderSpace — table entry BDD ids
        # belong to that manager.
        prober = AtpgProber(server.builder, server.table)
        for probe in prober.probes:
            delivery = net.inject(probe.entry, probe.header)
            for report in delivery.reports:
                tracker.observe(server.verifier.verify(report))
        filled = tracker.report()
        from repro.netmodel.rules import DROP_PORT

        assert filled.path_coverage > sparse.path_coverage
        assert filled.hop_coverage > sparse.hop_coverage
        # ATPG's guarantee: every hop its probe set covers is now verified,
        # so any hop still dark lies only on drop paths.
        dark_hops = {
            hop
            for i, o, entry in filled.dark_paths
            if o.port != DROP_PORT
            for hop in entry.hops
        }
        assert dark_hops <= tracker._verified_hops
        # ...yet dark *paths* remain: the path-blindness of reception probing.
        dark_deliverable = [
            (i, o) for i, o, _ in filled.dark_paths if o.port != DROP_PORT
        ]
        assert dark_deliverable  # ATPG cannot certify these
