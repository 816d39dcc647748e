"""Unit tests for fault localization (Algorithm 4 and the strawman)."""

import random

import pytest

from repro.core.localization import PathInferLocalizer, StrawmanLocalizer
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork, ModifyRuleOutput, random_misforward_fault
from repro.netmodel.rules import DROP_PORT
from repro.netmodel.topology import PortRef
from repro.topologies import build_fattree, build_linear


@pytest.fixture
def fattree():
    scenario = build_fattree(4)
    server = VeriDPServer(scenario.topo, scenario.channel, localize_failures=False)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    localizer = PathInferLocalizer(server.builder, server.scheme, scenario.topo)
    return scenario, server, net, localizer


def failed_reports(scenario, server, net):
    """All (delivery, report, verification) triples that fail verification."""
    failures = []
    for src, dst in scenario.host_pairs():
        delivery = net.inject_from_host(src, scenario.header_between(src, dst))
        for report in delivery.reports:
            verification = server.verifier.verify(report)
            if not verification.passed:
                failures.append((delivery, report, verification))
    return failures


class TestPathInfer:
    def test_misforward_recovers_real_path(self, fattree):
        scenario, server, net, localizer = fattree
        rng = random.Random(3)
        fault = random_misforward_fault(net, rng)
        failures = failed_reports(scenario, server, net)
        assert failures, "fault was not exercised; adjust the seed"
        for delivery, report, _ in failures:
            result = localizer.localize(report)
            assert result.recovered
            assert result.contains_path(delivery.hops) or (
                report.ttl_expired and result.contains_prefix_of(delivery.hops)
            )
            assert fault.switch_id in result.blamed_switches()

    def test_drop_fault_localized(self, fattree):
        """Rewire a used edge-switch rule to the drop port; the black-hole
        must be blamed on the right switch."""
        scenario, server, net, localizer = fattree
        # Find a rule actually used by some flow: take the first hop of a ping.
        delivery = net.inject_from_host(
            "h0_0_0", scenario.header_between("h0_0_0", "h3_1_1")
        )
        victim_hop = delivery.hops[1]  # a non-entry switch on the path
        switch = net.switch(victim_hop.switch)
        rule = switch.table.lookup(
            scenario.header_between("h0_0_0", "h3_1_1"), victim_hop.in_port
        )
        ModifyRuleOutput(victim_hop.switch, rule.rule_id, DROP_PORT).apply(net)

        delivery = net.inject_from_host(
            "h0_0_0", scenario.header_between("h0_0_0", "h3_1_1")
        )
        assert delivery.status == "dropped"
        report = delivery.reports[-1]
        verification = server.verifier.verify(report)
        assert not verification.passed
        result = localizer.localize(report)
        assert result.recovered
        assert victim_hop.switch in result.blamed_switches()

    def test_clean_network_reports_pass_without_localization(self, fattree):
        scenario, server, net, localizer = fattree
        assert failed_reports(scenario, server, net) == []


class TestStrawman:
    def test_strawman_blames_a_switch_on_misforward(self, fattree):
        scenario, server, net, _ = fattree
        strawman = StrawmanLocalizer(server.builder, server.scheme)
        rng = random.Random(3)
        fault = random_misforward_fault(net, rng)
        failures = failed_reports(scenario, server, net)
        assert failures
        blamed_any = False
        for _, report, _ in failures:
            result = strawman.localize(report)
            if result.candidates:
                blamed_any = True
        assert blamed_any

    def test_strawman_returns_no_paths(self, fattree):
        """The strawman cannot reconstruct paths, only point a finger."""
        scenario, server, net, _ = fattree
        strawman = StrawmanLocalizer(server.builder, server.scheme)
        random_misforward_fault(net, random.Random(3))
        for _, report, _ in failed_reports(scenario, server, net):
            for candidate in strawman.localize(report).candidates:
                assert candidate.hops == ()


class TestLocalizationResultHelpers:
    def test_blamed_switches_deduplicated(self, fattree):
        from repro.core.localization import CandidatePath, LocalizationResult
        from repro.core.reports import TagReport
        from repro.netmodel.packet import Header

        report = TagReport(PortRef("a", 1), PortRef("b", 1), Header(), 0)
        result = LocalizationResult(report=report)
        from repro.netmodel.hops import Hop

        result.candidates.append(CandidatePath((Hop(1, "S1", 2),), "S1"))
        result.candidates.append(CandidatePath((Hop(1, "S1", 3),), "S1"))
        result.candidates.append(CandidatePath((Hop(1, "S2", 3),), "S2"))
        assert result.blamed_switches() == ["S1", "S2"]

    def test_contains_prefix_of(self, fattree):
        from repro.core.localization import CandidatePath, LocalizationResult
        from repro.core.reports import TagReport
        from repro.netmodel.hops import Hop
        from repro.netmodel.packet import Header

        report = TagReport(PortRef("a", 1), PortRef("b", 1), Header(), 0)
        result = LocalizationResult(report=report)
        result.candidates.append(
            CandidatePath((Hop(1, "S1", 2), Hop(1, "S2", 2)), "S1")
        )
        actual = [Hop(1, "S1", 2), Hop(1, "S2", 2), Hop(1, "S3", 2)]
        assert result.contains_prefix_of(actual)
        assert not result.contains_path(actual)
        assert not result.contains_prefix_of([Hop(9, "S9", 9)])


class TestLinearTopologyLocalization:
    def test_single_path_network_blames_exact_switch(self):
        scenario = build_linear(4)
        server = VeriDPServer(scenario.topo, scenario.channel, localize_failures=False)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        localizer = PathInferLocalizer(server.builder, server.scheme, scenario.topo)
        # Divert H1->H4 traffic at S2 towards S1 (port 3): the packet ping-pongs
        # or exits wrongly; verification must fail and blame S2.
        header = scenario.header_between("H1", "H4")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        delivery = net.inject_from_host("H1", header)
        assert delivery.reports
        report = delivery.reports[-1]
        assert not server.verifier.verify(report).passed
        result = localizer.localize(report)
        assert "S2" in result.blamed_switches()
