"""Cross-feature integration: the extensions must compose, not just coexist.

Multi-table pipelines, header rewrites, atomic predicates, ACL-aware
incremental updates, policy queries and the repair engine each carry their
own tests; these check the seams between them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.headerspace import HeaderSpace, parse_ipv4
from repro.core.atomic_builder import AtomicPathTableBuilder
from repro.core.pathtable import PathTableBuilder
from repro.core.queries import PolicyChecker
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.netmodel.packet import Header
from repro.netmodel.predicates import SwitchPredicates
from repro.netmodel.rules import (
    Drop,
    FlowRule,
    Forward,
    GotoTable,
    Match,
    Rewrite,
)
from repro.netmodel.topology import Topology
from repro.topologies import build_linear, build_stanford


def table_signature(table):
    return {
        (inport, outport, entry.hops): entry.headers
        for inport, outport, entry in table.all_entries()
    }


class TestAtomicWithRicherConfigs:
    def test_atomic_equals_direct_on_stanford(self):
        """ACLs + SSH detour policies + drop rules, both builders agree."""
        scenario = build_stanford(subnets_per_zone=1)
        hs = HeaderSpace()
        direct = PathTableBuilder(scenario.topo, hs).build()
        atomic = AtomicPathTableBuilder(scenario.topo, hs).build()
        assert table_signature(atomic) == table_signature(direct)

    def test_atomic_equals_direct_on_multitable(self):
        """GotoTable chains are resolved before atomisation sees them."""
        scenario = build_linear(3, install_routes=False)
        ctrl = scenario.controller
        ctrl.install_destination_routes(scenario.subnets)
        ctrl.install("S2", FlowRule(500, Match.build(dst_port=23), Drop(), table_id=0))
        ctrl.install("S2", FlowRule(400, Match.build(dst="10.0.0.0/8"),
                                    GotoTable(1), table_id=0))
        ctrl.install("S2", FlowRule(10, Match.build(dst="10.0.2.0/24"),
                                    Forward(2), table_id=1))
        hs = HeaderSpace()
        direct = PathTableBuilder(scenario.topo, hs).build()
        atomic = AtomicPathTableBuilder(scenario.topo, hs).build()
        assert table_signature(atomic) == table_signature(direct)


class TestMultiTableWithRewrites:
    @pytest.fixture
    def nat_multitable(self):
        """Table 0 classifies; table 1 NATs a VIP and routes."""
        scenario = build_linear(3, install_routes=False)
        ctrl = scenario.controller
        ctrl.install_destination_routes(scenario.subnets)
        vip = "198.51.100.7"
        ctrl.install("S2", FlowRule(500, Match.build(dst_port=23), Drop(), table_id=0))
        ctrl.install("S2", FlowRule(400, Match.build(dst=f"{vip}/32"),
                                    GotoTable(1), table_id=0))
        ctrl.install(
            "S2",
            FlowRule(10, Match.build(dst=f"{vip}/32"),
                     Rewrite((("dst_ip", parse_ipv4("10.0.2.1")),), 2),
                     table_id=1),
        )
        ctrl.install("S1", FlowRule(300, Match.build(dst=f"{vip}/32"), Forward(2)))
        return scenario, vip

    def test_goto_then_rewrite_end_to_end(self, nat_multitable):
        scenario, vip = nat_multitable
        server = VeriDPServer(scenario.topo, scenario.channel)
        net = DataPlaneNetwork(
            scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
        )
        header = Header.from_strings("10.0.0.1", vip, 6, 40000, 443)
        result = net.inject_from_host("H1", header)
        assert result.status == "delivered"
        assert result.delivered_to == "H3"
        assert result.reports[0].header.dst_ip == parse_ipv4("10.0.2.1")
        assert server.incidents == []

    def test_classifier_drop_wins_over_nat(self, nat_multitable):
        scenario, vip = nat_multitable
        server = VeriDPServer(scenario.topo, scenario.channel)
        net = DataPlaneNetwork(
            scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
        )
        telnet = Header.from_strings("10.0.0.1", vip, 6, 40000, 23)
        result = net.inject_from_host("H1", telnet)
        assert result.status == "dropped"
        assert result.hops[-1].switch == "S2"
        assert server.incidents == []  # the drop is configured

    def test_path_entry_carries_rewrite_through_goto(self, nat_multitable):
        scenario, vip = nat_multitable
        hs = HeaderSpace()
        table = PathTableBuilder(scenario.topo, hs).build()
        entries = [
            e
            for _, _, e in table.all_entries()
            if e.rewrites == (("dst_ip", parse_ipv4("10.0.2.1")),)
        ]
        assert entries
        vip_header = Header.from_strings("10.0.0.1", vip, 6, 1, 443)
        assert any(
            hs.contains(e.headers, vip_header.as_dict()) for e in entries
        )


class TestQueriesOnExtendedConfigs:
    def test_waypoint_query_on_multitable_network(self):
        scenario = build_linear(3, install_routes=False)
        ctrl = scenario.controller
        ctrl.install_destination_routes(scenario.subnets)
        ctrl.install("S2", FlowRule(500, Match.build(dst_port=23), Drop(), table_id=0))
        ctrl.install("S2", FlowRule(1, Match(), GotoTable(1), table_id=0))
        ctrl.install("S2", FlowRule(10, Match.build(dst="10.0.2.0/24"),
                                    Forward(2), table_id=1))
        ctrl.install("S2", FlowRule(10, Match.build(dst="10.0.0.0/24"),
                                    Forward(3), table_id=1))
        ctrl.install("S2", FlowRule(10, Match.build(dst="10.0.1.0/24"),
                                    Forward(1), table_id=1))
        hs = HeaderSpace()
        table = PathTableBuilder(scenario.topo, hs).build()
        checker = PolicyChecker(table, hs, scenario.topo)
        # Telnet isolation holds because of the table-0 classifier.
        assert checker.isolation("H1", "H3", Match.build(dst_port=23))
        # Everything else still flows.
        assert checker.reachability("H1", "H3", Match.build(dst_port=80))

    def test_repair_on_multitable_fault(self):
        """The repair engine reissues rules in non-zero tables too."""
        from repro.core.repair import RepairEngine, RepairOutcome
        from repro.dataplane import DeleteRule

        scenario = build_linear(3, install_routes=False)
        ctrl = scenario.controller
        ctrl.install_destination_routes(scenario.subnets)
        ctrl.install("S2", FlowRule(400, Match(), GotoTable(1), table_id=0))
        t1 = ctrl.install("S2", FlowRule(10, Match.build(dst="10.0.2.0/24"),
                                         Forward(2), table_id=1))
        # Shadow the old table-0 route so table 1 is authoritative.
        for rule in list(scenario.topo.switch("S2").flow_table.sorted_rules(0)):
            if rule.table_id == 0 and not isinstance(rule.action, GotoTable):
                ctrl.remove("S2", rule.rule_id)

        server = VeriDPServer(scenario.topo, scenario.channel)
        net = DataPlaneNetwork(
            scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
        )
        engine = RepairEngine(scenario.controller, server, probe=net.inject)
        header = scenario.header_between("H1", "H3")
        assert net.inject_from_host("H1", header).status == "delivered"
        server.drain_incidents()

        DeleteRule("S2", t1.rule_id).apply(net)
        net.inject_from_host("H1", header)
        incident = server.drain_incidents()[0]
        result = engine.repair(incident)
        assert result.outcome is RepairOutcome.FIXED_BY_REISSUE
        assert net.inject_from_host("H1", header).status == "delivered"


class TestMultiTablePartitionProperty:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_two_table_pipelines_partition(self, data):
        """Transfer maps partition header space for random goto pipelines."""
        hs = HeaderSpace()
        topo = Topology()
        info = topo.add_switch("S", num_ports=4)
        prefixes = ["10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/16", "0.0.0.0/0"]
        # Table 0: a few classifiers, some jumping to table 1.
        for i in range(data.draw(st.integers(1, 3))):
            prefix = data.draw(st.sampled_from(prefixes))
            priority = data.draw(st.integers(1, 100))
            if data.draw(st.booleans()):
                action = GotoTable(1)
            else:
                action = data.draw(
                    st.sampled_from([Forward(1), Forward(2), Drop()])
                )
            info.flow_table.add(
                FlowRule(priority, Match.build(dst=prefix), action, table_id=0)
            )
        # Table 1: forwarding rules.
        for i in range(data.draw(st.integers(0, 3))):
            prefix = data.draw(st.sampled_from(prefixes))
            info.flow_table.add(
                FlowRule(
                    data.draw(st.integers(1, 100)),
                    Match.build(dst=prefix),
                    data.draw(st.sampled_from([Forward(3), Forward(4), Drop()])),
                    table_id=1,
                )
            )
        tmap = SwitchPredicates(info, hs).transfer_map(1)
        union = hs.bdd.or_many(tmap.values())
        assert union == hs.all_match
        values = list(tmap.values())
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                assert hs.bdd.and_(a, b) == hs.empty
