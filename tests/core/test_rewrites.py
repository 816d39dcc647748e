"""Tests for the header-rewrite extension (the paper's future work #1).

The paper's VeriDP "cannot handle packet rewrites"; its conclusion names
"incorporating header rewrites into the current VeriDP framework" as future
work.  This reproduction implements it: ``Rewrite`` actions on rules,
symbolic image/preimage of header sets through rewrite chains in the path
table, and verification of exit headers against the transformed sets.
"""

import pytest

from repro.bdd.headerspace import HeaderSpace, parse_ipv4
from repro.core.pathtable import PathTableBuilder
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.netmodel.packet import Header
from repro.netmodel.predicates import SwitchPredicates
from repro.netmodel.rules import DROP_PORT, FlowRule, Forward, Match, Rewrite
from repro.netmodel.topology import PortRef, Topology
from repro.topologies import build_linear

VIP = "198.51.100.1"
H3_IP = "10.0.2.1"


@pytest.fixture
def nat_scenario():
    """Linear H1-S1-S2-S3-H3 plus a VIP: S2 NATs 198.51.100.1 -> H3."""
    scenario = build_linear(3)
    ctrl = scenario.controller
    # S1 routes VIP traffic towards S2 (port 2); S2 rewrites and forwards on.
    ctrl.install("S1", FlowRule(300, Match.build(dst=f"{VIP}/32"), Forward(2)))
    ctrl.install(
        "S2",
        FlowRule(
            300,
            Match.build(dst=f"{VIP}/32"),
            Rewrite((("dst_ip", parse_ipv4(H3_IP)),), 2),
        ),
    )
    return scenario


class TestRewriteAction:
    def test_effective_sets_last_write_wins(self):
        rw = Rewrite((("dst_ip", 1), ("dst_ip", 2), ("proto", 6)), 3)
        assert rw.effective_sets() == (("dst_ip", 2), ("proto", 6))

    def test_requires_sets(self):
        with pytest.raises(ValueError):
            Rewrite((), 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Rewrite((("dst_ip", -1),), 1)
        with pytest.raises(ValueError):
            Rewrite((("dst_ip", 1),), -1)

    def test_rule_helpers(self):
        rule = FlowRule(10, Match(), Rewrite((("proto", 17),), 4))
        assert rule.output_port() == 4
        assert rule.rewrite_sets() == (("proto", 17),)
        assert "set[proto=17]" in rule.describe()


class TestHeaderSpaceTransforms:
    def test_set_field_image(self):
        hs = HeaderSpace()
        src = hs.prefix("dst_ip", parse_ipv4("10.0.0.0"), 8)
        image = hs.set_field(src, "dst_ip", parse_ipv4("192.0.2.7"))
        assert hs.contains(
            image,
            {"src_ip": 0, "dst_ip": parse_ipv4("192.0.2.7"), "proto": 6,
             "src_port": 1, "dst_port": 2},
        )
        # Everything in the image has the pinned value.
        assert hs.bdd.implies(image, hs.exact("dst_ip", parse_ipv4("192.0.2.7")))

    def test_set_field_preserves_other_fields(self):
        hs = HeaderSpace()
        src = hs.exact("dst_port", 443)
        image = hs.set_field(src, "dst_ip", 9)
        assert hs.bdd.implies(image, hs.exact("dst_port", 443))

    def test_preimage_inverts_image_membership(self):
        hs = HeaderSpace()
        ops = [("dst_ip", 7), ("proto", 17)]
        constraint = hs.bdd.and_(hs.exact("dst_ip", 7), hs.exact("dst_port", 53))
        pre = hs.preimage_sets(constraint, ops)
        header = {"src_ip": 5, "dst_ip": 123, "proto": 6, "src_port": 1, "dst_port": 53}
        rewritten = hs.rewrite_header(header, ops)
        assert hs.contains(pre, header) == hs.contains(constraint, rewritten)

    def test_preimage_of_unsatisfiable_constraint(self):
        hs = HeaderSpace()
        # After dst_ip := 7, no packet can have dst_ip == 9.
        pre = hs.preimage_sets(hs.exact("dst_ip", 9), [("dst_ip", 7)])
        assert pre == hs.empty

    def test_preimage_frees_overwritten_field(self):
        hs = HeaderSpace()
        pre = hs.preimage_sets(hs.exact("dst_ip", 7), [("dst_ip", 7)])
        assert pre == hs.all_match  # any entry dst_ip works

    def test_rewrite_header_concrete(self):
        hs = HeaderSpace()
        out = hs.rewrite_header({"dst_ip": 1, "proto": 6}, [("dst_ip", 9)])
        assert out == {"dst_ip": 9, "proto": 6}


class TestTransferActionsWithRewrites:
    def test_rewrite_slice_carries_ops(self):
        topo = Topology()
        info = topo.add_switch("S", num_ports=4)
        info.flow_table.add(
            FlowRule(10, Match.build(dst="10.0.0.0/8"), Rewrite((("proto", 17),), 2))
        )
        hs = HeaderSpace()
        actions = SwitchPredicates(info, hs).transfer_actions(1)
        rewrite_slices = [a for a in actions if a.rewrites]
        assert len(rewrite_slices) == 1
        assert rewrite_slices[0].out_port == 2
        assert rewrite_slices[0].rewrites == (("proto", 17),)

    def test_actions_partition_space(self):
        topo = Topology()
        info = topo.add_switch("S", num_ports=4)
        info.flow_table.add(
            FlowRule(20, Match.build(dst="10.0.0.0/8", dst_port=80),
                     Rewrite((("dst_port", 8080),), 2))
        )
        info.flow_table.add(FlowRule(10, Match.build(dst="10.0.0.0/8"), Forward(3)))
        hs = HeaderSpace()
        actions = SwitchPredicates(info, hs).transfer_actions(1)
        union = hs.bdd.or_many(a.pred for a in actions)
        assert union == hs.all_match
        for i, a in enumerate(actions):
            for b in actions[i + 1 :]:
                assert hs.bdd.and_(a.pred, b.pred) == hs.empty

    def test_outbound_acl_pulled_back_through_rewrite(self):
        """An egress ACL filters the *rewritten* packet."""
        from repro.netmodel.rules import Acl, AclEntry

        topo = Topology()
        info = topo.add_switch("S", num_ports=4)
        info.flow_table.add(
            FlowRule(10, Match.build(dst="10.0.0.0/8"),
                     Rewrite((("dst_port", 8080),), 2))
        )
        info.out_acl[2] = Acl([AclEntry(Match.build(dst_port=8080), permit=False)])
        hs = HeaderSpace()
        sp = SwitchPredicates(info, hs)
        actions = sp.transfer_actions(1)
        # Every 10/8 packet becomes dst_port 8080 and is then blocked:
        # the forwarding slice must be empty, the drop slice total.
        assert all(a.out_port == DROP_PORT for a in actions if a.pred != hs.empty)


class TestNatPathTable:
    def test_vip_entry_has_distinct_exit_headers(self, nat_scenario):
        hs = HeaderSpace()
        builder = PathTableBuilder(nat_scenario.topo, hs)
        table = builder.build()
        topo = nat_scenario.topo
        entries = table.lookup(topo.host_port("H1"), topo.host_port("H3"))
        vip_entries = [e for e in entries if e.rewrites]
        assert len(vip_entries) == 1
        entry = vip_entries[0]
        assert entry.rewrites == (("dst_ip", parse_ipv4(H3_IP)),)
        vip_header = Header.from_strings("10.0.0.1", VIP, 6, 1000, 80)
        nat_header = vip_header.with_(dst_ip=parse_ipv4(H3_IP))
        assert hs.contains(entry.headers, vip_header.as_dict())
        assert not hs.contains(entry.headers, nat_header.as_dict())
        assert hs.contains(entry.exit_header_set(), nat_header.as_dict())
        assert not hs.contains(entry.exit_header_set(), vip_header.as_dict())

    def test_expected_path_follows_rewrite(self, nat_scenario):
        hs = HeaderSpace()
        builder = PathTableBuilder(nat_scenario.topo, hs)
        builder.build()
        vip_header = Header.from_strings("10.0.0.1", VIP, 6, 1000, 80)
        hops = builder.expected_path(PortRef("S1", 1), vip_header.as_dict())
        assert [h.switch for h in hops] == ["S1", "S2", "S3"]
        assert hops[-1].out_port == 1  # delivered to H3


class TestNatEndToEnd:
    def test_healthy_nat_traffic_verifies(self, nat_scenario):
        server = VeriDPServer(nat_scenario.topo, nat_scenario.channel)
        net = DataPlaneNetwork(
            nat_scenario.topo,
            nat_scenario.channel,
            report_sink=server.receive_report_bytes,
        )
        vip_header = Header.from_strings("10.0.0.1", VIP, 6, 1000, 80)
        result = net.inject_from_host("H1", vip_header)
        assert result.status == "delivered"
        assert result.delivered_to == "H3"
        # The delivered packet carries the rewritten destination.
        assert result.reports[0].header.dst_ip == parse_ipv4(H3_IP)
        assert server.incidents == []
        assert server.stats()["passed"] == 1

    def test_missing_nat_rule_detected(self, nat_scenario):
        """The NAT rule silently fails to install: VIP traffic dies at S2,
        and the (S1, S2:⊥) report matches no configured path."""
        server = VeriDPServer(nat_scenario.topo, nat_scenario.channel)
        net = DataPlaneNetwork(
            nat_scenario.topo,
            nat_scenario.channel,
            report_sink=server.receive_report_bytes,
        )
        nat_rule = nat_scenario.topo.switch("S2").flow_table.lookup(
            Header.from_strings("10.0.0.1", VIP, 6, 1, 1), 3
        )
        net.switch("S2").external_delete(nat_rule.rule_id)
        result = net.inject_from_host(
            "H1", Header.from_strings("10.0.0.1", VIP, 6, 1000, 80)
        )
        assert result.status == "dropped"
        assert len(server.incidents) == 1
        assert not server.incidents[0].verification.passed

    def test_wrong_rewrite_target_detected_when_unroutable(self, nat_scenario):
        """An attacker redirects the VIP to a dead address: the packet drops
        downstream and the drop report fails verification."""
        server = VeriDPServer(nat_scenario.topo, nat_scenario.channel)
        net = DataPlaneNetwork(
            nat_scenario.topo,
            nat_scenario.channel,
            report_sink=server.receive_report_bytes,
        )
        nat_rule = nat_scenario.topo.switch("S2").flow_table.lookup(
            Header.from_strings("10.0.0.1", VIP, 6, 1, 1), 3
        )
        hijacked = FlowRule(
            nat_rule.priority,
            nat_rule.match,
            Rewrite((("dst_ip", parse_ipv4("10.0.99.99")),), 2),
            rule_id=nat_rule.rule_id,
        )
        net.switch("S2").external_insert(hijacked)
        result = net.inject_from_host(
            "H1", Header.from_strings("10.0.0.1", VIP, 6, 1000, 80)
        )
        assert result.status == "dropped"
        assert len(server.incidents) == 1

    def test_masquerade_limitation_documented(self, nat_scenario):
        """Known residual blind spot: a wrong rewrite whose output coincides
        with legitimate traffic *on the same hop sequence* verifies, because
        header identity is lost at the rewrite.  This test pins down the
        limitation rather than hiding it."""
        server = VeriDPServer(nat_scenario.topo, nat_scenario.channel)
        net = DataPlaneNetwork(
            nat_scenario.topo,
            nat_scenario.channel,
            report_sink=server.receive_report_bytes,
        )
        nat_rule = nat_scenario.topo.switch("S2").flow_table.lookup(
            Header.from_strings("10.0.0.1", VIP, 6, 1, 1), 3
        )
        # Rewrite to H2's address: the packet is delivered to H2 along a hop
        # sequence that legitimate H1->H2 traffic also uses.
        hijacked = FlowRule(
            nat_rule.priority,
            nat_rule.match,
            Rewrite((("dst_ip", parse_ipv4("10.0.1.1")),), 1),
            rule_id=nat_rule.rule_id,
        )
        net.switch("S2").external_insert(hijacked)
        result = net.inject_from_host(
            "H1", Header.from_strings("10.0.0.1", VIP, 6, 1000, 80)
        )
        assert result.status == "delivered"
        assert result.delivered_to == "H2"  # hijacked!
        assert server.incidents == []  # ...and invisible to VeriDP
