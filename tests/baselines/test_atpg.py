"""Unit tests for the ATPG-style reachability prober."""

import pytest

from repro.baselines.atpg import AtpgProber
from repro.bdd.headerspace import HeaderSpace
from repro.core.pathtable import PathTableBuilder
from repro.dataplane import DataPlaneNetwork, DeleteRule, ModifyRuleOutput
from repro.netmodel.rules import DROP_PORT
from repro.topologies import build_figure5, build_linear


@pytest.fixture
def linear():
    scenario = build_linear(3)
    hs = HeaderSpace()
    builder = PathTableBuilder(scenario.topo, hs)
    table = builder.build()
    prober = AtpgProber(builder, table)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    return scenario, prober, net


class TestProbeGeneration:
    def test_probes_cover_all_deliverable_hops(self, linear):
        scenario, prober, _ = linear
        all_hops = {
            hop
            for _, outport, entry in prober.table.all_entries()
            if outport.port != DROP_PORT
            for hop in entry.hops
        }
        assert set().union(*(probe.covers for probe in prober.probes)) == all_hops

    def test_greedy_cover_reduces_probe_count(self, linear):
        _, prober, _ = linear
        deliverable = sum(
            1
            for _, outport, _ in prober.table.all_entries()
            if outport.port != DROP_PORT
        )
        assert 0 < len(prober.probes) <= deliverable

    def test_generation_time_recorded(self, linear):
        _, prober, _ = linear
        assert prober.generation_time_s > 0

    def test_probe_headers_match_their_paths(self, linear):
        _, prober, net = linear
        for probe in prober.probes:
            result = net.inject(probe.entry, probe.header)
            assert result.exit_port == probe.expected_exit


class TestDetectionPower:
    def test_healthy_network_passes(self, linear):
        _, prober, net = linear
        report = prober.run(net)
        assert not report.detected_fault
        assert report.passed == report.sent

    def test_blackhole_detected(self, linear):
        scenario, prober, net = linear
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, DROP_PORT).apply(net)
        report = prober.run(net)
        assert report.detected_fault

    def test_atpg_blind_spot_path_deviation_with_delivery(self):
        """The paper's core critique: a deviation that still delivers
        passes ATPG, while VeriDP flags it (see the comparison bench)."""
        scenario = build_figure5()
        hs = HeaderSpace()
        builder = PathTableBuilder(scenario.topo, hs)
        table = builder.build()
        prober = AtpgProber(builder, table)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)

        # Kill the SSH detour at S1: SSH now goes direct (still delivered).
        ssh_rule = net.switch("S1").table.lookup(
            scenario.header_between("H1", "H3", dst_port=22), 1
        )
        assert ssh_rule.match.dst_port_range == (22, 22)
        DeleteRule("S1", ssh_rule.rule_id).apply(net)

        # The SSH probe still arrives at its expected exit port (via the
        # wrong path), so this particular probe cannot fail...
        ssh_probes = [
            p for p in prober.probes if p.header.dst_port == 22
            and p.entry == scenario.topo.host_port("H1")
        ]
        for probe in ssh_probes:
            result = net.inject(probe.entry, probe.header)
            assert result.exit_port == probe.expected_exit  # delivered!
            # ...yet the path differs from the configured one:
            assert tuple(result.hops) != probe.covers
