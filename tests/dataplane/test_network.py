"""Unit tests for the network-wide data-plane walker."""

import pytest

from repro.controlplane.messages import FlowMod, FlowModOp
from repro.core.reports import unpack_report
from repro.dataplane import (
    DataPlaneNetwork,
    DeliveryStatus,
    KillSwitch,
)
from repro.netmodel.rules import DROP_PORT, FlowRule, Forward, Match
from repro.netmodel.topology import PortRef
from repro.topologies import build_figure5, build_linear, build_ring


@pytest.fixture
def linear():
    scenario = build_linear(3)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    return scenario, net


class TestDelivery:
    def test_delivered_end_to_end(self, linear):
        scenario, net = linear
        result = net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert result.status == DeliveryStatus.DELIVERED
        assert result.delivered_to == "H3"
        assert [h.switch for h in result.hops] == ["S1", "S2", "S3"]
        assert result.exit_port == scenario.topo.host_port("H3")

    def test_reports_emitted_object_and_bytes(self):
        scenario = build_linear(3)
        payloads = []
        net = DataPlaneNetwork(scenario.topo, scenario.channel, report_sink=payloads.append)
        net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert len(net.emitted_reports) == 1
        assert len(payloads) == 1
        decoded = unpack_report(payloads[0], net.codec)
        assert decoded == net.emitted_reports[0]

    def test_drain_reports(self, linear):
        scenario, net = linear
        net.inject_from_host("H1", scenario.header_between("H1", "H2"))
        drained = net.drain_reports()
        assert len(drained) == 1
        assert net.emitted_reports == []

    def test_inject_requires_edge_port(self, linear):
        scenario, net = linear
        with pytest.raises(ValueError):
            net.inject(PortRef("S1", 2), scenario.header_between("H1", "H3"))

    def test_unknown_switch_keyerror(self, linear):
        _, net = linear
        with pytest.raises(KeyError):
            net.switch("S99")


class TestDropAndLoss:
    def test_unroutable_dropped_at_entry(self, linear):
        scenario, net = linear
        header = scenario.header_between("H1", "H3").with_(dst_ip=0xDEADBEEF)
        result = net.inject_from_host("H1", header)
        assert result.status == DeliveryStatus.DROPPED
        assert result.exit_port == PortRef("S1", DROP_PORT)
        assert len(result.reports) == 1  # drop report (Algorithm 1 line 6)

    def test_dead_switch_swallows_silently(self, linear):
        scenario, net = linear
        KillSwitch("S2").apply(net)
        result = net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert result.status == DeliveryStatus.LOST
        assert result.reports == []  # the paper's blind spot
        assert net.emitted_reports == []

    def test_dead_entry_switch(self, linear):
        scenario, net = linear
        KillSwitch("S1").apply(net)
        result = net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert result.status == DeliveryStatus.LOST
        assert result.hops == []


class TestLoops:
    def test_forwarding_loop_cut_and_reported(self):
        scenario = build_ring(4, install_routes=False)
        for sid in scenario.topo.switches:
            scenario.controller.install(sid, FlowRule(10, Match(), Forward(2)))
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        result = net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert result.status == DeliveryStatus.LOOPED
        assert len(result.reports) == 1
        assert result.reports[0].ttl_expired


class TestFlowModHandling:
    def test_live_flowmods_applied(self, linear):
        scenario, net = linear
        before = len(net.switch("S1").table)
        scenario.controller.install(
            "S1", FlowRule(50, Match.build(dst="99.0.0.0/8"), Forward(2))
        )
        assert len(net.switch("S1").table) == before + 1

    def test_flowmod_delete_applied(self, linear):
        scenario, net = linear
        rule = scenario.controller.install(
            "S1", FlowRule(50, Match.build(dst="99.0.0.0/8"), Forward(2))
        )
        before = len(net.switch("S1").table)
        scenario.controller.remove("S1", rule.rule_id)
        assert len(net.switch("S1").table) == before - 1

    def test_flowmod_modify_applied(self, linear):
        scenario, net = linear
        rule = scenario.controller.install(
            "S1", FlowRule(50, Match.build(dst="99.0.0.0/8"), Forward(2))
        )
        new_rule = FlowRule(50, rule.match, Forward(1), rule_id=rule.rule_id)
        scenario.channel.send(FlowMod(FlowModOp.MODIFY, "S1", new_rule))
        assert net.switch("S1").table.get(rule.rule_id).action == Forward(1)

    def test_history_replay_on_late_attach(self):
        scenario = build_linear(3)  # routes installed before net exists
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        assert all(len(s.table) > 0 for s in net.switches.values())
        result = net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert result.status == DeliveryStatus.DELIVERED


class TestMiddleboxTraversal:
    def test_packet_transits_middlebox_with_one_tag(self):
        scenario = build_figure5()
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        result = net.inject_from_host(
            "H1", scenario.header_between("H1", "H3", dst_port=22)
        )
        assert result.status == DeliveryStatus.DELIVERED
        assert [str(h) for h in result.hops] == [
            "<1|S1|3>",
            "<1|S2|3>",
            "<3|S2|2>",
            "<1|S3|2>",
        ]
        assert len(result.reports) == 1
        assert result.reports[0].tag == net.scheme.tag_of_path(result.hops)
