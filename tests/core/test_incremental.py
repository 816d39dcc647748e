"""Unit tests for incremental path-table updates (Section 4.4)."""

import pytest

from repro.bdd.headerspace import HeaderSpace, parse_prefix
from repro.core.incremental import (
    IncrementalPathTable,
    LpmProvider,
    PrefixRuleTree,
)
from repro.core.pathtable import PathTableBuilder
from repro.netmodel.rules import DROP_PORT
from repro.topologies import build_internet2, build_linear, internet2_lpm_ruleset
from repro.topologies.base import lpm_ruleset_for


@pytest.fixture
def hs():
    return HeaderSpace()


class TestPrefixRuleTree:
    def test_empty_tree_drops_everything(self, hs):
        tree = PrefixRuleTree(hs, "S")
        preds = tree.port_predicates()
        assert preds[DROP_PORT] == hs.all_match

    def test_add_moves_delta_from_drop(self, hs):
        tree = PrefixRuleTree(hs, "S")
        delta = tree.add(parse_prefix("10.0.0.0/8"), 2)
        assert delta.from_port == DROP_PORT
        assert delta.to_port == 2
        assert delta.delta == hs.prefix("dst_ip", 0x0A000000, 8)

    def test_nested_add_delta_excludes_children(self, hs):
        tree = PrefixRuleTree(hs, "S")
        tree.add(parse_prefix("10.0.1.0/24"), 3)
        delta = tree.add(parse_prefix("10.0.0.0/8"), 2)
        # The /8 match must exclude the pre-existing /24.
        p8 = hs.prefix("dst_ip", 0x0A000000, 8)
        p24 = hs.prefix("dst_ip", 0x0A000100, 24)
        assert delta.delta == hs.bdd.diff(p8, p24)
        assert delta.from_port == DROP_PORT

    def test_child_add_takes_from_parent(self, hs):
        tree = PrefixRuleTree(hs, "S")
        tree.add(parse_prefix("10.0.0.0/8"), 2)
        delta = tree.add(parse_prefix("10.0.1.0/24"), 3)
        assert delta.from_port == 2
        assert delta.to_port == 3

    def test_delete_returns_delta_to_parent(self, hs):
        tree = PrefixRuleTree(hs, "S")
        tree.add(parse_prefix("10.0.0.0/8"), 2)
        tree.add(parse_prefix("10.0.1.0/24"), 3)
        delta = tree.delete(parse_prefix("10.0.1.0/24"))
        assert delta.from_port == 3
        assert delta.to_port == 2

    def test_delete_reattaches_grandchildren(self, hs):
        tree = PrefixRuleTree(hs, "S")
        tree.add(parse_prefix("10.0.0.0/8"), 2)
        tree.add(parse_prefix("10.0.0.0/16"), 3)
        tree.add(parse_prefix("10.0.1.0/24"), 4)
        tree.delete(parse_prefix("10.0.0.0/16"))
        # /24 must now be a child of /8: deleting /8 moves /24's complement.
        (node,) = [
            c for c in tree.root.children if c.prefix == parse_prefix("10.0.0.0/8")
        ]
        assert any(c.prefix == parse_prefix("10.0.1.0/24") for c in node.children)

    def test_duplicate_prefix_rejected(self, hs):
        tree = PrefixRuleTree(hs, "S")
        tree.add(parse_prefix("10.0.0.0/8"), 2)
        with pytest.raises(ValueError):
            tree.add(parse_prefix("10.0.0.0/8"), 3)

    def test_zero_prefix_reserved(self, hs):
        tree = PrefixRuleTree(hs, "S")
        with pytest.raises(ValueError):
            tree.add((0, 0), 1)
        with pytest.raises(ValueError):
            tree.delete((0, 0))

    def test_delete_missing_raises(self, hs):
        with pytest.raises(KeyError):
            PrefixRuleTree(hs, "S").delete(parse_prefix("10.0.0.0/8"))

    def test_port_predicates_partition(self, hs):
        tree = PrefixRuleTree(hs, "S")
        tree.add(parse_prefix("10.0.0.0/8"), 1)
        tree.add(parse_prefix("10.1.0.0/16"), 2)
        tree.add(parse_prefix("192.168.0.0/16"), 3)
        preds = tree.port_predicates()
        union = hs.bdd.or_many(preds.values())
        assert union == hs.all_match
        values = list(preds.values())
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                assert hs.bdd.and_(a, b) == hs.empty

    def test_len_tracks_rules(self, hs):
        tree = PrefixRuleTree(hs, "S")
        assert len(tree) == 0
        tree.add(parse_prefix("10.0.0.0/8"), 1)
        tree.add(parse_prefix("10.1.0.0/16"), 2)
        assert len(tree) == 2
        tree.delete(parse_prefix("10.0.0.0/8"))
        assert len(tree) == 1


class TestLpmProviderIncrementalPreds:
    def test_incremental_predicates_match_recomputation(self, hs):
        scenario = build_linear(3, install_routes=False)
        provider = LpmProvider(scenario.topo, hs)
        moves = [
            ("S1", "10.0.0.0/24", 2),
            ("S1", "10.0.1.0/24", 1),
            ("S1", "10.0.0.0/16", 2),
            ("S1", "10.0.0.128/25", 1),
        ]
        for switch, prefix, port in moves:
            provider.add_rule(switch, prefix, port)
        provider.delete_rule("S1", "10.0.0.0/24")
        fresh = provider.trees["S1"].port_predicates()
        live = provider.transfer_map("S1", 1)
        for port, pred in fresh.items():
            assert live.get(port, hs.empty) == pred
        # ports without rules stay empty
        for port, pred in live.items():
            if port not in fresh:
                assert pred == hs.empty


def table_signature(table):
    """Canonical comparable form: {(inport, outport, hops): headers_bdd}."""
    return {
        (inport, outport, entry.hops): entry.headers
        for inport, outport, entry in table.all_entries()
    }


class TestIncrementalEqualsRebuild:
    def _check(self, scenario, operations):
        hs = HeaderSpace()
        inc = IncrementalPathTable(scenario.topo, hs)
        for op, switch, prefix, port in operations:
            if op == "add":
                inc.add_rule(switch, prefix, port)
            else:
                inc.delete_rule(switch, prefix)
        sig_incremental = table_signature(inc.table)
        sig_rebuilt = table_signature(
            PathTableBuilder(scenario.topo, hs, provider=inc.provider).build()
        )
        assert sig_incremental == sig_rebuilt

    def test_single_add(self):
        scenario = build_linear(3, install_routes=False)
        self._check(scenario, [("add", "S1", "10.0.0.0/24", 2)])

    def test_route_chain(self):
        scenario = build_linear(3, install_routes=False)
        ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
        operations = [
            ("add", switch, prefix, port)
            for switch, rules in sorted(ruleset.items())
            for prefix, port in rules
        ]
        self._check(scenario, operations)

    def test_add_then_delete_restores(self):
        scenario = build_linear(3, install_routes=False)
        operations = [
            ("add", "S1", "10.0.0.0/24", 2),
            ("add", "S2", "10.0.0.0/24", 2),
            ("add", "S1", "10.0.0.0/16", 1),
            ("del", "S1", "10.0.0.0/16", None),
        ]
        self._check(scenario, operations)

    def test_nested_prefixes_on_internet2(self):
        scenario = build_internet2(prefixes_per_pop=1)
        ruleset = internet2_lpm_ruleset(scenario)
        operations = [
            ("add", switch, prefix, port)
            for switch, rules in sorted(ruleset.items())
            for prefix, port in rules
        ]
        # Add nested prefixes on one PoP to exercise tree restructuring.
        operations += [
            ("add", "SEAT", "10.0.0.0/16", 1),
            ("add", "SEAT", "10.0.0.0/26", 2),
            ("del", "SEAT", "10.0.0.0/16", None),
        ]
        self._check(scenario, operations)

    def test_update_time_recorded(self):
        scenario = build_linear(3, install_routes=False)
        inc = IncrementalPathTable(scenario.topo, HeaderSpace())
        elapsed = inc.add_rule("S1", "10.0.0.0/24", 2)
        assert elapsed > 0
        assert inc.last_update_s == elapsed
