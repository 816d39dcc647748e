"""Tests for incremental updates with inbound ACL rules.

Section 4.4 simplifies to pure prefix rules but notes "the incremental
update can also be performed with ACL rules".  These tests exercise that
claim: per-ingress deny entries added/removed incrementally, with the live
table asserted identical to a full rebuild after every operation, and with
interleaved prefix-rule churn.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.headerspace import HeaderSpace
from repro.core.incremental import IncrementalPathTable, LpmProvider
from repro.core.pathtable import PathTableBuilder
from repro.netmodel.rules import DROP_PORT, Match
from repro.netmodel.topology import PortRef
from repro.topologies import build_internet2, build_linear, lpm_ruleset_for


def table_signature(table):
    return {
        (inport, outport, entry.hops): entry.headers
        for inport, outport, entry in table.all_entries()
    }


def assert_matches_rebuild(inc):
    rebuilt = PathTableBuilder(
        inc.topo, inc.hs, provider=inc.provider,
        max_path_length=inc.builder.max_path_length,
    ).build()
    assert table_signature(inc.table) == table_signature(rebuilt)


def routed_linear():
    scenario = build_linear(3, install_routes=False)
    hs = HeaderSpace()
    inc = IncrementalPathTable(scenario.topo, hs)
    for switch, rules in sorted(
        lpm_ruleset_for(scenario.topo, scenario.subnets).items()
    ):
        for prefix, port in rules:
            inc.add_rule(switch, prefix, port)
    return scenario, hs, inc


class TestProviderAclState:
    def test_denied_set_accumulates(self):
        scenario = build_linear(3, install_routes=False)
        hs = HeaderSpace()
        provider = LpmProvider(scenario.topo, hs)
        a = Match.build(dst="10.0.2.0/24").to_bdd(hs)
        b = Match.build(dst_port=23).to_bdd(hs)
        provider.add_inbound_deny("S1", 1, a)
        provider.add_inbound_deny("S1", 1, b)
        denied = provider.inbound_denied("S1", 1)
        assert denied == hs.bdd.or_(a, b)

    def test_delta_is_only_new_headers(self):
        scenario = build_linear(3, install_routes=False)
        hs = HeaderSpace()
        provider = LpmProvider(scenario.topo, hs)
        broad = Match.build(dst="10.0.0.0/8").to_bdd(hs)
        narrow = Match.build(dst="10.0.2.0/24").to_bdd(hs)
        first = provider.add_inbound_deny("S1", 1, broad)
        assert first == broad
        second = provider.add_inbound_deny("S1", 1, narrow)
        assert second == hs.empty  # already covered by the /8

    def test_transfer_map_subtracts_denies(self):
        scenario, hs, inc = routed_linear()
        provider = inc.provider
        deny = Match.build(dst="10.0.2.0/24").to_bdd(hs)
        provider.add_inbound_deny("S1", 1, deny)
        tmap = provider.transfer_map("S1", 1)
        header = scenario.header_between("H1", "H3").as_dict()
        assert hs.contains(tmap[DROP_PORT], header)
        assert not any(
            hs.contains(pred, header)
            for port, pred in tmap.items()
            if port != DROP_PORT
        )
        # Other ingress ports are unaffected.
        tmap_other = provider.transfer_map("S1", 2)
        assert any(
            hs.contains(pred, header)
            for port, pred in tmap_other.items()
            if port != DROP_PORT
        )

    def test_remove_unknown_entry_raises(self):
        scenario = build_linear(3, install_routes=False)
        hs = HeaderSpace()
        provider = LpmProvider(scenario.topo, hs)
        with pytest.raises(KeyError):
            provider.remove_inbound_deny("S1", 1, hs.all_match)


class TestIncrementalAclEqualsRebuild:
    def test_add_deny_matches_rebuild(self):
        scenario, hs, inc = routed_linear()
        deny = Match.build(dst="10.0.2.0/24").to_bdd(hs)
        inc.add_inbound_deny("S1", 1, deny)
        assert_matches_rebuild(inc)

    def test_add_then_remove_restores(self):
        scenario, hs, inc = routed_linear()
        before = table_signature(inc.table)
        deny = Match.build(dst="10.0.2.0/24").to_bdd(hs)
        inc.add_inbound_deny("S1", 1, deny)
        inc.remove_inbound_deny("S1", 1, deny)
        assert table_signature(inc.table) == before
        assert_matches_rebuild(inc)

    def test_deny_on_transit_switch(self):
        """An ACL at a mid-path ingress cuts through flows from upstream."""
        scenario, hs, inc = routed_linear()
        deny = Match.build(dst_port=23).to_bdd(hs)
        inc.add_inbound_deny("S2", 3, deny)  # S2's ingress from S1
        assert_matches_rebuild(inc)
        # The drop path exists and carries the right hop.
        drop_entries = inc.table.lookup(
            scenario.topo.host_port("H1"), PortRef("S2", DROP_PORT)
        )
        telnet = scenario.header_between("H1", "H3", dst_port=23).as_dict()
        matching = [e for e in drop_entries if hs.contains(e.headers, telnet)]
        assert matching
        assert matching[0].hops[-1].out_port == DROP_PORT

    def test_interleaved_prefix_and_acl_churn(self):
        scenario, hs, inc = routed_linear()
        deny = Match.build(dst="10.0.2.0/25").to_bdd(hs)
        inc.add_inbound_deny("S2", 3, deny)
        assert_matches_rebuild(inc)
        # Prefix churn while the ACL is live: updates must respect it.
        inc.add_rule("S2", "10.0.2.128/25", 1)
        assert_matches_rebuild(inc)
        inc.delete_rule("S2", "10.0.2.128/25")
        assert_matches_rebuild(inc)
        inc.remove_inbound_deny("S2", 3, deny)
        assert_matches_rebuild(inc)

    def test_overlapping_denies(self):
        scenario, hs, inc = routed_linear()
        broad = Match.build(dst="10.0.0.0/8").to_bdd(hs)
        narrow = Match.build(dst="10.0.2.0/24").to_bdd(hs)
        inc.add_inbound_deny("S1", 1, narrow)
        assert_matches_rebuild(inc)
        inc.add_inbound_deny("S1", 1, broad)
        assert_matches_rebuild(inc)
        # Removing the narrow entry changes nothing (still covered).
        inc.remove_inbound_deny("S1", 1, narrow)
        assert_matches_rebuild(inc)
        inc.remove_inbound_deny("S1", 1, broad)
        assert_matches_rebuild(inc)

    def test_acl_on_internet2(self):
        scenario = build_internet2(prefixes_per_pop=1, install_routes=False)
        hs = HeaderSpace()
        inc = IncrementalPathTable(scenario.topo, hs)
        from repro.topologies import internet2_lpm_ruleset

        for switch, rules in sorted(internet2_lpm_ruleset(scenario).items()):
            for prefix, port in rules:
                inc.add_rule(switch, prefix, port)
        deny = Match.build(dst="10.0.0.0/30").to_bdd(hs)
        inc.add_inbound_deny("KANS", 1, deny)
        assert_matches_rebuild(inc)


class TestRuleUnderLiveDeny:
    """A prefix rule changes only what each ingress still forwards.

    With a deny on ``S3``'s ingress 2, a rule that moves ``Δ`` off ``⊥``
    must leave the denied part of ``Δ`` on ``⊥`` for paths entering at 2.
    """

    def unrouted_with_deny(self):
        scenario = build_linear(3, install_routes=False)
        hs = HeaderSpace()
        inc = IncrementalPathTable(scenario.topo, hs)
        inc.add_inbound_deny("S3", 2, Match.build(dst="10.3.0.0/16").to_bdd(hs))
        assert_matches_rebuild(inc)
        return inc

    @pytest.mark.parametrize("prefix", ["10.3.0.0/16", "10.0.0.0/8"])
    def test_rule_added_under_the_drop_rule(self, prefix):
        inc = self.unrouted_with_deny()
        inc.add_rule("S3", prefix, 1)
        assert_matches_rebuild(inc)
        inc.delete_rule("S3", prefix)
        assert_matches_rebuild(inc)

    @pytest.mark.parametrize("prefix", ["10.3.0.0/16", "10.0.0.0/8"])
    def test_staged_rule_added_under_the_drop_rule(self, prefix):
        inc = self.unrouted_with_deny()
        inc.stage_add_rule("S3", prefix, 1)
        inc.stage_add_rule("S1", prefix, 2)
        inc.flush_updates()
        assert_matches_rebuild(inc)

    def test_deny_staged_between_rules_of_one_batch(self):
        scenario = build_linear(3, install_routes=False)
        hs = HeaderSpace()
        inc = IncrementalPathTable(scenario.topo, hs)
        inc.stage_add_rule("S3", "10.0.0.0/8", 1)
        # The deny flushes the staged rule with it, in one pass.
        inc.add_inbound_deny("S3", 2, Match.build(dst="10.3.0.0/16").to_bdd(hs))
        assert inc.pending_updates == 0
        assert inc.last_flush.events == 2
        assert_matches_rebuild(inc)


class TestAclChangeFeed:
    def test_deny_reaches_the_change_log(self):
        scenario, hs, inc = routed_linear()
        token = inc.change_token()
        deny = Match.build(dst="10.0.2.0/24").to_bdd(hs)
        inc.add_inbound_deny("S1", 1, deny)
        token, changes = inc.changes_since(token)
        assert changes
        changed = hs.bdd.or_many(changes)
        assert hs.bdd.diff(deny, changed) == hs.empty
        inc.remove_inbound_deny("S1", 1, deny)
        _, changes = inc.changes_since(token)
        assert changes
        assert hs.bdd.diff(deny, hs.bdd.or_many(changes)) == hs.empty
        assert inc.drain_change_feed()


class TestPropertyAclChurn:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_acl_and_prefix_sequences(self, data):
        scenario, hs, inc = routed_linear()
        live_denies = []
        deny_pool = [
            ("S1", 1, Match.build(dst="10.0.2.0/24").to_bdd(hs)),
            ("S2", 3, Match.build(dst_port=23).to_bdd(hs)),
            ("S2", 2, Match.build(dst="10.0.0.0/24").to_bdd(hs)),
            ("S3", 3, Match.build(src="10.0.0.0/24").to_bdd(hs)),
            ("S3", 2, Match.build(dst="10.3.0.0/16").to_bdd(hs)),
        ]
        prefix_pool = [
            ("S1", "10.3.0.0/16", 2),
            ("S2", "10.0.2.128/25", 1),
            ("S3", "10.3.0.0/16", 1),
            ("S3", "10.0.0.0/8", 3),
        ]
        live_rules = set()

        def toggle_rule(staged):
            switch, prefix, port = prefix_pool[
                data.draw(st.integers(0, len(prefix_pool) - 1))
            ]
            if (switch, prefix) in live_rules:
                live_rules.discard((switch, prefix))
                if staged:
                    inc.stage_delete_rule(switch, prefix)
                else:
                    inc.delete_rule(switch, prefix)
            else:
                live_rules.add((switch, prefix))
                if staged:
                    inc.stage_add_rule(switch, prefix, port)
                else:
                    inc.add_rule(switch, prefix, port)

        n_ops = data.draw(st.integers(min_value=1, max_value=6))
        for _ in range(n_ops):
            kind = data.draw(st.sampled_from(["acl", "rule", "batch"]))
            if kind == "rule":
                toggle_rule(staged=False)
            elif kind == "batch":
                for _ in range(data.draw(st.integers(1, 3))):
                    toggle_rule(staged=True)
                inc.flush_updates()
            elif live_denies and data.draw(st.booleans()):
                entry = live_denies.pop(data.draw(
                    st.integers(0, len(live_denies) - 1)
                ))
                inc.remove_inbound_deny(*entry)
            else:
                entry = deny_pool[data.draw(st.integers(0, len(deny_pool) - 1))]
                if entry not in live_denies:
                    inc.add_inbound_deny(*entry)
                    live_denies.append(entry)
        assert_matches_rebuild(inc)
