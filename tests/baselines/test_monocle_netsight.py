"""Unit tests for the Monocle-style and NetSight-style baselines."""

import pytest

from repro.baselines.monocle import MonocleProber
from repro.baselines.netsight import NetSightCollector, POSTCARD_BYTES, Postcard
from repro.bdd.headerspace import HeaderSpace
from repro.core.pathtable import PathTableBuilder
from repro.dataplane import DataPlaneNetwork
from repro.netmodel.hops import Hop
from repro.netmodel.packet import Header
from repro.netmodel.rules import DROP_PORT, Drop, FlowRule, Forward, Match
from repro.topologies import build_linear


def switch_with_rules(rules):
    from repro.dataplane.switch import DataPlaneSwitch

    switch = DataPlaneSwitch("S", ports={1, 2, 3, 4})
    for rule in rules:
        switch.install(rule)
    return switch


class TestMonocleGeneration:
    def test_probe_per_testable_rule(self):
        rules = [
            FlowRule(20, Match.build(dst="10.0.1.0/24"), Forward(2)),
            FlowRule(10, Match.build(dst="10.0.2.0/24"), Forward(3)),
        ]
        switch = switch_with_rules(rules)
        prober = MonocleProber("S", switch.table)
        assert len(prober.probes) == 2
        assert prober.untestable == []

    def test_shadowed_rule_untestable(self):
        shadowing = FlowRule(20, Match.build(dst="10.0.0.0/8"), Forward(2))
        shadowed = FlowRule(10, Match.build(dst="10.0.1.0/24"), Forward(3))
        switch = switch_with_rules([shadowing, shadowed])
        prober = MonocleProber("S", switch.table)
        assert shadowed.rule_id in prober.untestable

    def test_probe_isolates_its_rule(self):
        """The probe must match only the rule under test."""
        rules = [
            FlowRule(20, Match.build(dst="10.0.0.0/8", dst_port=22), Forward(2)),
            FlowRule(10, Match.build(dst="10.0.0.0/8"), Forward(3)),
        ]
        switch = switch_with_rules(rules)
        prober = MonocleProber("S", switch.table)
        by_rule = {p.rule_id: p for p in prober.probes}
        # The broad rule's probe must NOT have dst_port 22 (else the
        # high-priority rule would claim it).
        broad_probe = by_rule[rules[1].rule_id]
        assert broad_probe.header.dst_port != 22

    def test_generation_time_recorded(self):
        switch = switch_with_rules([FlowRule(10, Match(), Forward(1))])
        prober = MonocleProber("S", switch.table)
        assert prober.generation_time_s > 0

    def test_lone_drop_rule_untestable(self):
        """A drop rule over empty fallback is indistinguishable from a
        table miss (both drop) — Monocle cannot probe it."""
        rules = [FlowRule(10, Match.build(dst="10.0.0.0/8"), Drop())]
        switch = switch_with_rules(rules)
        prober = MonocleProber("S", switch.table)
        assert prober.probes == []
        assert prober.untestable == [rules[0].rule_id]

    def test_drop_rule_over_forward_fallback_testable(self):
        """A drop rule shadowing a forwarding rule IS probeable: absence
        would forward the probe."""
        drop = FlowRule(20, Match.build(dst="10.0.1.0/24"), Drop())
        fwd = FlowRule(10, Match.build(dst="10.0.0.0/8"), Forward(2))
        switch = switch_with_rules([drop, fwd])
        prober = MonocleProber("S", switch.table)
        by_rule = {p.rule_id: p for p in prober.probes}
        assert by_rule[drop.rule_id].expected_port == DROP_PORT


class TestMonocleDetection:
    def test_healthy_table_confirmed(self):
        rules = [
            FlowRule(20, Match.build(dst="10.0.1.0/24"), Forward(2)),
            FlowRule(10, Match.build(dst="10.0.2.0/24"), Forward(3)),
        ]
        switch = switch_with_rules(rules)
        prober = MonocleProber("S", switch.table.copy())
        report = prober.run(switch)
        assert not report.detected_fault
        assert report.confirmed == report.tested == 2

    def test_missing_rule_detected(self):
        rule = FlowRule(10, Match.build(dst="10.0.1.0/24"), Forward(2))
        switch = switch_with_rules([rule])
        prober = MonocleProber("S", switch.table.copy())
        switch.external_delete(rule.rule_id)
        report = prober.run(switch)
        assert report.detected_fault
        assert report.missing_or_modified[0].rule_id == rule.rule_id

    def test_modified_rule_detected(self):
        rule = FlowRule(10, Match.build(dst="10.0.1.0/24"), Forward(2))
        switch = switch_with_rules([rule])
        prober = MonocleProber("S", switch.table.copy())
        switch.external_modify_output(rule.rule_id, 4)
        report = prober.run(switch)
        assert report.detected_fault


class TestNetSight:
    def test_history_reassembly(self):
        collector = NetSightCollector()
        header = Header(dst_port=80)
        hops = [Hop(1, "S1", 2), Hop(3, "S2", 2), Hop(3, "S3", 1)]
        collector.record_walk(7, header, hops)
        history = collector.history(7)
        assert history.path() == tuple(hops)
        assert collector.postcards_received == 3

    def test_traffic_bytes(self):
        collector = NetSightCollector()
        collector.record_walk(1, Header(), [Hop(1, "S1", 2)] * 5)
        assert collector.traffic_bytes() == 5 * POSTCARD_BYTES

    def test_check_history_exact_detection(self):
        scenario = build_linear(3)
        hs = HeaderSpace()
        builder = PathTableBuilder(scenario.topo, hs)
        builder.build()
        collector = NetSightCollector(builder)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)

        header = scenario.header_between("H1", "H3")
        result = net.inject_from_host("H1", header)
        collector.record_walk(1, header, result.hops)
        assert collector.check_history(1) is True

        # A deviated walk is flagged exactly.
        fake_hops = list(result.hops)
        fake_hops[1] = Hop(fake_hops[1].in_port, fake_hops[1].switch, 1)
        collector.record_walk(2, header, fake_hops)
        assert collector.check_history(2) is False

    def test_check_unknown_packet_is_none(self):
        scenario = build_linear(3)
        builder = PathTableBuilder(scenario.topo, HeaderSpace())
        collector = NetSightCollector(builder)
        assert collector.check_history(99) is None

    def test_check_requires_builder(self):
        collector = NetSightCollector()
        collector.receive(Postcard(1, Hop(1, "S", 2), Header()))
        with pytest.raises(ValueError):
            collector.check_history(1)
