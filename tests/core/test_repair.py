"""Tests for the automatic repair engine (the paper's future work #2)."""

import pytest

from repro.core.repair import RepairEngine, RepairOutcome
from repro.core.server import VeriDPServer
from repro.dataplane import (
    DataPlaneNetwork,
    DeleteRule,
    IgnorePriorities,
    InjectRule,
    KillSwitch,
    ModifyRuleOutput,
)
from repro.netmodel.rules import DROP_PORT, FlowRule, Forward, Match
from repro.topologies import build_linear


@pytest.fixture
def rig():
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(
        scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
    )
    engine = RepairEngine(scenario.controller, server, probe=net.inject)
    return scenario, server, net, engine


def provoke(scenario, server, net):
    """Send the H1->H3 flow and return the first incident (must exist)."""
    server.drain_incidents()
    net.inject_from_host("H1", scenario.header_between("H1", "H3"))
    incidents = server.drain_incidents()
    assert incidents, "expected the fault to be detected"
    return incidents[0]


def victim_rule(scenario, net, switch="S2"):
    header = scenario.header_between("H1", "H3")
    return net.switch(switch).table.lookup(header, 3)


class TestReissuePath:
    def test_deleted_rule_repaired(self, rig):
        scenario, server, net, engine = rig
        rule = victim_rule(scenario, net)
        DeleteRule("S2", rule.rule_id).apply(net)
        incident = provoke(scenario, server, net)

        result = engine.repair(incident)
        assert result.outcome is RepairOutcome.FIXED_BY_REISSUE
        assert any(a.kind == "reissue" and a.switch_id == "S2" for a in result.actions)
        # The flow really works again.
        final = net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert final.status == "delivered"
        assert server.drain_incidents() == []

    def test_rewired_rule_repaired(self, rig):
        scenario, server, net, engine = rig
        rule = victim_rule(scenario, net)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        incident = provoke(scenario, server, net)
        result = engine.repair(incident)
        assert result.outcome is RepairOutcome.FIXED_BY_REISSUE
        assert net.switch("S2").table.get(rule.rule_id).action == rule.action

    def test_blackholed_rule_repaired(self, rig):
        scenario, server, net, engine = rig
        rule = victim_rule(scenario, net)
        ModifyRuleOutput("S2", rule.rule_id, DROP_PORT).apply(net)
        incident = provoke(scenario, server, net)
        assert engine.repair(incident).outcome is RepairOutcome.FIXED_BY_REISSUE


class TestResyncPath:
    def test_foreign_rule_needs_resync(self, rig):
        """A foreign high-priority rule shadows the legitimate one; only a
        flush-and-resync removes it."""
        scenario, server, net, engine = rig
        foreign = FlowRule(9999, Match.build(dst="10.0.2.0/24"), Forward(1))
        InjectRule("S2", foreign).apply(net)
        incident = provoke(scenario, server, net)

        result = engine.repair(incident)
        assert result.outcome is RepairOutcome.FIXED_BY_RESYNC
        assert foreign.rule_id not in net.switch("S2").table
        final = net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert final.status == "delivered"
        assert server.drain_incidents() == []

    def test_resync_restores_full_table(self, rig):
        scenario, server, net, engine = rig
        logical = len(scenario.topo.switch("S2").flow_table)
        InjectRule("S2", FlowRule(9999, Match.build(dst="10.0.2.0/24"), Forward(1))).apply(net)
        incident = provoke(scenario, server, net)
        engine.repair(incident)
        assert len(net.switch("S2").table) == logical


class TestUnrepairable:
    def test_dead_switch_unrepairable(self, rig):
        scenario, server, net, engine = rig
        # Fault first (so an incident exists), then the switch dies.
        rule = victim_rule(scenario, net)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        incident = provoke(scenario, server, net)
        KillSwitch("S2").apply(net)

        result = engine.repair(incident)
        assert result.outcome is RepairOutcome.UNREPAIRABLE

    def test_priority_ignoring_switch_unrepairable(self, rig):
        """Broken lookup logic is not a table-content problem: reissue and
        resync push the same rules into the same broken pipeline."""
        scenario, server, net, engine = rig
        scenario.controller.install(
            "S2", FlowRule(1, Match.build(dst="10.0.0.0/8"), Forward(3))
        )
        IgnorePriorities("S2").apply(net)
        incident = provoke(scenario, server, net)
        result = engine.repair(incident)
        assert result.outcome is RepairOutcome.UNREPAIRABLE

    def test_transient_incident_nothing_to_do(self, rig):
        """If the flow verifies again by the time repair runs (e.g. the
        operator already fixed it), the engine touches nothing."""
        scenario, server, net, engine = rig
        rule = victim_rule(scenario, net)
        original = net.switch("S2").table.get(rule.rule_id)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        incident = provoke(scenario, server, net)
        net.switch("S2").install(original)  # externally healed
        result = engine.repair(incident)
        assert result.outcome is RepairOutcome.NOTHING_TO_DO
        assert result.actions == []


class TestAuditTrail:
    def test_result_str_lists_actions(self, rig):
        scenario, server, net, engine = rig
        rule = victim_rule(scenario, net)
        DeleteRule("S2", rule.rule_id).apply(net)
        incident = provoke(scenario, server, net)
        result = engine.repair(incident)
        text = str(result)
        assert "reissue" in text and "S2" in text

    def test_probe_counter(self, rig):
        scenario, server, net, engine = rig
        rule = victim_rule(scenario, net)
        DeleteRule("S2", rule.rule_id).apply(net)
        incident = provoke(scenario, server, net)
        result = engine.repair(incident)
        assert result.probes_sent >= 2  # pre-check + post-reissue check
