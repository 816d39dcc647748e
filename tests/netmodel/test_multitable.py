"""Tests for multi-table pipelines (the §3.3 'cascade of flow tables')."""

import pytest

from repro.bdd.headerspace import HeaderSpace, parse_ipv4
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork, DeleteRule
from repro.dataplane.switch import DataPlaneSwitch
from repro.netmodel.packet import Header
from repro.netmodel.predicates import SwitchPredicates
from repro.netmodel.rules import (
    DROP_PORT,
    Drop,
    FlowRule,
    Forward,
    GotoTable,
    Match,
)
from repro.netmodel.topology import Topology
from repro.topologies import build_linear


def header(dst="10.0.2.1", dst_port=80):
    return Header.from_strings("10.0.1.1", dst, 6, 1000, dst_port)


class TestGotoTableAction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GotoTable(0)
        with pytest.raises(ValueError):
            GotoTable(-1)
        with pytest.raises(ValueError):
            GotoTable(1, (("dst_ip", -1),))

    def test_rule_forbids_backward_jump(self):
        with pytest.raises(ValueError):
            FlowRule(10, Match(), GotoTable(1), table_id=1)
        with pytest.raises(ValueError):
            FlowRule(10, Match(), GotoTable(1), table_id=2)

    def test_rule_table_id_validation(self):
        with pytest.raises(ValueError):
            FlowRule(10, Match(), Forward(1), table_id=-1)

    def test_effective_sets(self):
        goto = GotoTable(2, (("proto", 6), ("proto", 17)))
        assert goto.effective_sets() == (("proto", 17),)

    def test_describe(self):
        rule = FlowRule(10, Match(), GotoTable(1), table_id=0)
        assert "goto(1)" in rule.describe()


class TestFlowTableMultiTable:
    def test_sorted_rules_filter(self):
        t0 = FlowRule(10, Match(), GotoTable(1), table_id=0)
        t1 = FlowRule(10, Match(), Forward(1), table_id=1)
        from repro.netmodel.rules import FlowTable

        table = FlowTable([t0, t1])
        assert table.sorted_rules(0) == [t0]
        assert table.sorted_rules(1) == [t1]
        assert len(table.sorted_rules()) == 2
        assert table.table_ids() == [0, 1]

    def test_lookup_is_per_table(self):
        from repro.netmodel.rules import FlowTable

        t1 = FlowRule(10, Match(), Forward(1), table_id=1)
        table = FlowTable([t1])
        assert table.lookup(header()) is None  # table 0 misses
        assert table.lookup(header(), table_id=1) is t1


class TestSwitchChainResolution:
    def make_switch(self):
        """Classic two-stage pipeline: table 0 classifies, table 1 forwards."""
        switch = DataPlaneSwitch("S", ports={1, 2, 3})
        # Table 0: drop telnet, everything else continues to table 1.
        switch.install(FlowRule(20, Match.build(dst_port=23), Drop(), table_id=0))
        switch.install(FlowRule(10, Match(), GotoTable(1), table_id=0))
        # Table 1: destination routing.
        switch.install(
            FlowRule(10, Match.build(dst="10.0.2.0/24"), Forward(2), table_id=1)
        )
        switch.install(
            FlowRule(10, Match.build(dst="10.0.3.0/24"), Forward(3), table_id=1)
        )
        return switch

    def test_chain_resolves(self):
        switch = self.make_switch()
        assert switch.forward(header(dst="10.0.2.9"), 1) == 2
        assert switch.forward(header(dst="10.0.3.9"), 1) == 3

    def test_first_table_drop_short_circuits(self):
        switch = self.make_switch()
        assert switch.forward(header(dst="10.0.2.9", dst_port=23), 1) == DROP_PORT

    def test_miss_in_second_table_drops(self):
        switch = self.make_switch()
        assert switch.forward(header(dst="10.9.9.9"), 1) == DROP_PORT

    def test_goto_set_fields_apply(self):
        switch = DataPlaneSwitch("S", ports={1, 2})
        switch.install(
            FlowRule(10, Match(), GotoTable(1, (("dst_port", 8080),)), table_id=0)
        )
        switch.install(
            FlowRule(10, Match.build(dst_port=8080), Forward(2), table_id=1)
        )
        out, new_header = switch.process(header(dst_port=80), 1)
        assert out == 2
        assert new_header.dst_port == 8080

    def test_ignore_priority_applies_per_table(self):
        switch = self.make_switch()
        # Add a low-priority table-0 rule that would hijack when priorities
        # are ignored (lowest match wins).
        switch.install(FlowRule(1, Match(), Forward(1), table_id=0))
        assert switch.forward(header(dst="10.0.2.9"), 1) == 2
        switch.ignore_priority = True
        assert switch.forward(header(dst="10.0.2.9"), 1) == 1


class TestPredicatesMultiTable:
    def make_info(self):
        topo = Topology()
        info = topo.add_switch("S", num_ports=3)
        info.flow_table.add(
            FlowRule(20, Match.build(dst_port=23), Drop(), table_id=0)
        )
        info.flow_table.add(FlowRule(10, Match(), GotoTable(1), table_id=0))
        info.flow_table.add(
            FlowRule(10, Match.build(dst="10.0.2.0/24"), Forward(2), table_id=1)
        )
        info.flow_table.add(
            FlowRule(10, Match.build(dst="10.0.3.0/24"), Forward(3), table_id=1)
        )
        return info

    def test_forwarding_predicates_resolve_chain(self):
        hs = HeaderSpace()
        preds = SwitchPredicates(self.make_info(), hs).forwarding_predicates(1)
        assert hs.contains(preds[2], header(dst="10.0.2.9").as_dict())
        assert hs.contains(preds[3], header(dst="10.0.3.9").as_dict())
        assert hs.contains(preds[DROP_PORT], header(dst_port=23).as_dict())
        assert hs.contains(preds[DROP_PORT], header(dst="10.9.0.1").as_dict())

    def test_partition_property_holds(self):
        hs = HeaderSpace()
        tmap = SwitchPredicates(self.make_info(), hs).transfer_map(1)
        union = hs.bdd.or_many(tmap.values())
        assert union == hs.all_match
        values = list(tmap.values())
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                assert hs.bdd.and_(a, b) == hs.empty

    def test_predicates_match_concrete_switch(self):
        """Symbolic chain expansion agrees with the packet-level walker."""
        hs = HeaderSpace()
        info = self.make_info()
        sp = SwitchPredicates(info, hs)
        switch = DataPlaneSwitch("S", ports={1, 2, 3})
        for rule in info.flow_table:
            switch.install(rule)
        for h in [
            header(dst="10.0.2.9"),
            header(dst="10.0.3.9"),
            header(dst="10.0.2.9", dst_port=23),
            header(dst="99.0.0.1"),
        ]:
            concrete = switch.forward(h, 1)
            tmap = sp.transfer_map(1)
            symbolic = next(
                port for port, pred in tmap.items()
                if hs.contains(pred, h.as_dict())
            )
            assert concrete == symbolic, str(h)

    def test_goto_with_set_field_pulled_back(self):
        """Later-table matches apply to the rewritten header: verified by
        pulling the match back through the set-field chain."""
        hs = HeaderSpace()
        topo = Topology()
        info = topo.add_switch("S", num_ports=2)
        info.flow_table.add(
            FlowRule(10, Match.build(dst="10.0.0.0/8"),
                     GotoTable(1, (("dst_port", 8080),)), table_id=0)
        )
        info.flow_table.add(
            FlowRule(10, Match.build(dst_port=8080), Forward(2), table_id=1)
        )
        preds = SwitchPredicates(info, hs).forwarding_predicates(1)
        # Any original dst_port inside 10/8 reaches port 2 (it becomes 8080).
        assert hs.contains(preds[2], header(dst="10.1.1.1", dst_port=5).as_dict())
        assert hs.contains(preds[DROP_PORT], header(dst="11.1.1.1").as_dict())


class TestMultiTableEndToEnd:
    def test_veridp_on_multitable_network(self):
        """A linear network whose middle switch uses a two-table pipeline:
        the path table, data plane and verification all agree."""
        scenario = build_linear(3, install_routes=False)
        ctrl = scenario.controller
        # S1/S3: plain single-table routes.
        ctrl.install_destination_routes(scenario.subnets)
        # S2: replace its routes with a classify-then-forward pipeline.
        for rule in list(scenario.topo.switch("S2").flow_table.sorted_rules()):
            ctrl.remove("S2", rule.rule_id)
        ctrl.install("S2", FlowRule(20, Match.build(dst_port=23), Drop(), table_id=0))
        ctrl.install("S2", FlowRule(10, Match(), GotoTable(1), table_id=0))
        ctrl.install("S2", FlowRule(10, Match.build(dst="10.0.0.0/24"), Forward(3), table_id=1))
        ctrl.install("S2", FlowRule(10, Match.build(dst="10.0.1.0/24"), Forward(1), table_id=1))
        ctrl.install("S2", FlowRule(10, Match.build(dst="10.0.2.0/24"), Forward(2), table_id=1))

        server = VeriDPServer(scenario.topo, scenario.channel)
        net = DataPlaneNetwork(
            scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
        )
        # Healthy traffic verifies; telnet is dropped *and verifies* (the
        # drop is configured).
        ok = net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert ok.status == "delivered"
        blocked = net.inject_from_host(
            "H1", scenario.header_between("H1", "H3", dst_port=23)
        )
        assert blocked.status == "dropped"
        assert server.incidents == []

        # Fault inside table 1: the H3 route vanishes from the data plane.
        t1_rule = next(
            r for r in net.switch("S2").table.sorted_rules(1)
            if r.match.dst_prefix == (parse_ipv4("10.0.2.0"), 24)
        )
        DeleteRule("S2", t1_rule.rule_id).apply(net)
        result = net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert result.status == "dropped"
        assert len(server.incidents) == 1
        assert "S2" in server.incidents[0].blamed_switches
