"""Unit tests for matches, rules, flow tables and ACLs."""

import pytest

from repro.bdd.headerspace import HeaderSpace
from repro.netmodel.packet import Header, PROTO_TCP, PROTO_UDP
from repro.netmodel.rules import (
    Acl,
    AclEntry,
    DROP_PORT,
    Drop,
    FlowRule,
    FlowTable,
    Forward,
    Match,
)


@pytest.fixture(scope="module")
def hs():
    return HeaderSpace()


def header(dst="10.0.2.1", dst_port=80, src="10.0.1.1", proto=PROTO_TCP, src_port=1000):
    return Header.from_strings(src, dst, proto, src_port, dst_port)


class TestMatch:
    def test_wildcard_matches_everything(self):
        assert Match().matches(header())

    def test_dst_prefix(self):
        m = Match.build(dst="10.0.2.0/24")
        assert m.matches(header(dst="10.0.2.200"))
        assert not m.matches(header(dst="10.0.3.1"))

    def test_src_prefix(self):
        m = Match.build(src="10.0.0.0/8")
        assert m.matches(header(src="10.200.0.1"))
        assert not m.matches(header(src="11.0.0.1"))

    def test_zero_length_prefix_matches_all(self):
        m = Match.build(dst="0.0.0.0/0")
        assert m.matches(header(dst="255.255.255.255"))

    def test_exact_port(self):
        m = Match.build(dst_port=22)
        assert m.matches(header(dst_port=22))
        assert not m.matches(header(dst_port=23))

    def test_port_range(self):
        m = Match.build(dst_port=(1000, 2000))
        assert m.matches(header(dst_port=1500))
        assert not m.matches(header(dst_port=2500))

    def test_empty_port_range_rejected(self):
        with pytest.raises(ValueError):
            Match.build(dst_port=(5, 4))

    def test_proto(self):
        m = Match.build(proto=PROTO_UDP)
        assert m.matches(header(proto=PROTO_UDP))
        assert not m.matches(header(proto=PROTO_TCP))

    def test_in_port(self):
        m = Match.build(dst="10.0.0.0/8", in_port=3)
        assert m.matches(header(), in_port=3)
        assert not m.matches(header(), in_port=1)
        assert not m.matches(header(), in_port=None)

    def test_to_bdd_agrees_with_matches(self, hs):
        m = Match.build(dst="10.0.2.0/24", dst_port=(20, 25), proto=PROTO_TCP)
        pred = m.to_bdd(hs)
        for h in [
            header(dst="10.0.2.7", dst_port=22),
            header(dst="10.0.2.7", dst_port=80),
            header(dst="10.9.2.7", dst_port=22),
            header(proto=PROTO_UDP, dst="10.0.2.7", dst_port=22),
        ]:
            assert hs.contains(pred, h.as_dict()) == m.matches(h)

    def test_describe_wildcard(self):
        assert Match().describe() == "*"


class TestFlowTable:
    def test_lookup_priority_order(self):
        specific = FlowRule(200, Match.build(dst="10.0.2.0/24", dst_port=22), Forward(2))
        general = FlowRule(100, Match.build(dst="10.0.2.0/24"), Forward(3))
        table = FlowTable([general, specific])
        assert table.lookup(header(dst_port=22)) is specific
        assert table.lookup(header(dst_port=80)) is general

    def test_lookup_miss_returns_none(self):
        table = FlowTable([FlowRule(10, Match.build(dst="10.0.2.0/24"), Forward(1))])
        assert table.lookup(header(dst="10.1.0.0")) is None

    def test_tie_break_by_install_order(self):
        first = FlowRule(50, Match.build(dst="10.0.0.0/8"), Forward(1))
        second = FlowRule(50, Match.build(dst="10.0.0.0/8"), Forward(2))
        table = FlowTable([first, second])
        assert table.lookup(header()) is first

    def test_remove(self):
        rule = FlowRule(10, Match(), Forward(1))
        table = FlowTable([rule])
        assert table.remove(rule.rule_id) is rule
        assert len(table) == 0
        with pytest.raises(KeyError):
            table.remove(rule.rule_id)

    def test_reinstall_same_id_replaces(self):
        rule = FlowRule(10, Match(), Forward(1))
        modified = FlowRule(10, Match(), Forward(2), rule_id=rule.rule_id)
        table = FlowTable([rule])
        table.add(modified)
        assert len(table) == 1
        assert table.get(rule.rule_id).action == Forward(2)

    def test_copy_is_independent(self):
        rule = FlowRule(10, Match(), Forward(1))
        table = FlowTable([rule])
        clone = table.copy()
        clone.remove(rule.rule_id)
        assert rule.rule_id in table

    def test_iteration_in_lookup_order(self):
        low = FlowRule(1, Match(), Drop())
        high = FlowRule(99, Match.build(dst_port=80), Forward(1))
        table = FlowTable([low, high])
        assert list(table) == [high, low]

    def test_output_port(self):
        assert FlowRule(1, Match(), Forward(7)).output_port() == 7
        assert FlowRule(1, Match(), Drop()).output_port() == DROP_PORT

    def test_unique_rule_ids(self):
        a = FlowRule(1, Match(), Forward(1))
        b = FlowRule(1, Match(), Forward(1))
        assert a.rule_id != b.rule_id

    def test_forward_rejects_negative_port(self):
        with pytest.raises(ValueError):
            Forward(-2)


class TestAcl:
    def test_empty_acl_permits(self):
        assert Acl().permits(header())

    def test_deny_entry(self):
        acl = Acl([AclEntry(Match.build(dst="10.0.0.0/8"), permit=False)])
        assert not acl.permits(header(dst="10.5.0.1"))
        assert acl.permits(header(dst="11.0.0.1"))

    def test_first_match_wins(self):
        acl = Acl(
            [
                AclEntry(Match.build(dst="10.0.2.0/24"), permit=True),
                AclEntry(Match.build(dst="10.0.0.0/8"), permit=False),
            ]
        )
        assert acl.permits(header(dst="10.0.2.1"))
        assert not acl.permits(header(dst="10.0.3.1"))

    def test_default_deny(self):
        acl = Acl([AclEntry(Match.build(dst_port=80), permit=True)], default_permit=False)
        assert acl.permits(header(dst_port=80))
        assert not acl.permits(header(dst_port=81))

    def test_to_bdd_agrees_with_permits(self, hs):
        acl = Acl(
            [
                AclEntry(Match.build(dst="10.0.2.0/24", dst_port=22), permit=False),
                AclEntry(Match.build(dst="10.0.0.0/8"), permit=True),
            ],
            default_permit=False,
        )
        pred = acl.to_bdd(hs)
        for h in [
            header(dst="10.0.2.9", dst_port=22),
            header(dst="10.0.2.9", dst_port=80),
            header(dst="10.3.0.1"),
            header(dst="12.0.0.1"),
        ]:
            assert hs.contains(pred, h.as_dict()) == acl.permits(h)

    def test_add_appends(self):
        acl = Acl()
        acl.add(AclEntry(Match.build(dst_port=22), permit=False))
        assert len(acl) == 1
        assert not acl.permits(header(dst_port=22))
