"""Unit tests for the VeriDP server."""

import pytest

from repro.core.server import VeriDPServer
from repro.core.verifier import Verdict
from repro.dataplane import DataPlaneNetwork, DropRuleInstall, ModifyRuleOutput
from repro.netmodel.rules import FlowRule, Forward, Match
from repro.topologies import build_linear


@pytest.fixture
def wired():
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(
        scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
    )
    return scenario, server, net


class TestHealthyOperation:
    def test_all_pings_pass(self, wired):
        scenario, server, net = wired
        for src, dst in scenario.host_pairs():
            net.inject_from_host(src, scenario.header_between(src, dst))
        stats = server.stats()
        assert stats["failed"] == 0
        assert stats["verified"] == len(scenario.host_pairs())
        assert server.incidents == []

    def test_stats_shape(self, wired):
        _, server, _ = wired
        stats = server.stats()
        assert {
            "verified",
            "passed",
            "failed",
            "incidents",
            "path_table_pairs",
            "path_table_paths",
            "avg_path_length",
        } <= set(stats)


class TestFaultDetection:
    def test_misforward_creates_incident_with_blame(self, wired):
        scenario, server, net = wired
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        net.inject_from_host("H1", header)
        assert len(server.incidents) >= 1
        incident = server.incidents[0]
        assert not incident.verification.passed
        assert "S2" in incident.blamed_switches
        assert "S2" in str(incident)

    def test_localization_can_be_disabled(self):
        scenario = build_linear(3)
        server = VeriDPServer(scenario.topo, scenario.channel, localize_failures=False)
        net = DataPlaneNetwork(
            scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
        )
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        net.inject_from_host("H1", header)
        assert server.incidents
        assert server.incidents[0].localization is None
        assert server.incidents[0].blamed_switches == []

    def test_drain_incidents(self, wired):
        scenario, server, net = wired
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        net.inject_from_host("H1", header)
        drained = server.drain_incidents()
        assert drained
        assert server.incidents == []


class TestRuleChurn:
    def test_rule_add_triggers_lazy_rebuild(self, wired):
        scenario, server, net = wired
        pairs_before = server.stats()["path_table_pairs"]
        # A new subnet routed to H1's port on S1 via all switches.
        scenario.controller.install_destination_routes({"H1": "192.168.0.0/24"})
        assert server.refresh_if_dirty()
        # Traffic to the new subnet now verifies end-to-end.
        header = scenario.header_between("H3", "H1").with_(dst_ip=0xC0A80001)
        delivery = net.inject_from_host("H3", header)
        assert delivery.status == "delivered"
        incident = server.incidents
        assert incident == []
        assert server.stats()["path_table_paths"] >= pairs_before

    def test_refresh_noop_when_clean(self, wired):
        _, server, _ = wired
        server.refresh_if_dirty()  # flush whatever construction left
        assert server.refresh_if_dirty() is False

    def test_force_rebuild(self, wired):
        _, server, _ = wired
        before = server.stats()["path_table_paths"]
        server.force_rebuild()
        assert server.stats()["path_table_paths"] == before

    def test_silent_install_failure_detected(self):
        """The paper's core scenario: a FlowMod the switch never applied."""
        scenario = build_linear(3, install_routes=False)
        server = VeriDPServer(scenario.topo, scenario.channel)
        net = DataPlaneNetwork(
            scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
        )
        # Blacklist the *next* install on S2 for the H3 route.
        # Install all routes; capture the S2->H3 rule id by scanning afterwards.
        scenario.controller.install_destination_routes(scenario.subnets)
        header = scenario.header_between("H1", "H3")
        rule = scenario.topo.switch("S2").flow_table.lookup(header, 3)
        DropRuleInstall("S2", rule.rule_id).apply(net)
        # Re-send the rule as a MODIFY: the switch silently ignores it, but
        # first delete it from the physical table to model "never installed".
        net.switch("S2").external_delete(rule.rule_id)
        delivery = net.inject_from_host("H1", header)
        assert delivery.status == "dropped"
        assert len(server.incidents) == 1
        assert not server.incidents[0].verification.passed


class TestReportBytesPath:
    def test_bytes_and_object_paths_agree(self, wired):
        scenario, server, net = wired
        header = scenario.header_between("H1", "H2")
        delivery = net.inject_from_host("H1", header)
        report = delivery.reports[0]
        direct = server.receive_report(report)
        assert direct.verification.verdict is Verdict.PASS


class TestLocalizationCache:
    def test_repeated_identical_failures_hit_cache(self, wired):
        scenario, server, net = wired
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        for _ in range(5):
            net.inject_from_host("H1", header)
        assert len(server.incidents) == 5
        assert server.localization_cache_hits == 4
        # Every incident still carries the (shared) localization evidence.
        assert all("S2" in i.blamed_switches for i in server.incidents)

    def test_distinct_failures_miss_cache(self, wired):
        scenario, server, net = wired
        to_h3 = scenario.header_between("H1", "H3")
        to_h2 = scenario.header_between("H1", "H2")
        for switch, header, in_port in (("S2", to_h3, 3), ("S1", to_h2, 1)):
            rule = net.switch(switch).table.lookup(header, in_port)
            ModifyRuleOutput(switch, rule.rule_id, 1).apply(net)
        # Two faults on two destinations: nothing one PathInfer run walked
        # says anything about the other.
        net.inject_from_host("H1", to_h3)
        net.inject_from_host("H1", to_h2)
        assert len(server.incidents) == 2
        assert server.localization_cache_hits == 0
        assert server.localizer.runs == 2

    def test_same_forwarding_class_shares_one_pathinfer_run(self, wired):
        scenario, server, net = wired
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        net.inject_from_host("H1", header)
        # No rule reads src_port: another ephemeral port is another payload
        # (its own record, its own report) in the same forwarding class.
        net.inject_from_host("H1", header.with_(src_port=4242))
        first, second = server.incidents
        assert first is not second
        assert second.verification.report.header.src_port == 4242
        assert second.localization.report is second.verification.report
        assert second.localization.candidates is first.localization.candidates
        assert server.localizer.runs == 1
        assert server.localization_cache_hits == 1
        assert server.stats()["localization_classes"] == 1

    def test_cache_invalidated_by_rule_change(self, wired):
        scenario, server, net = wired
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        net.inject_from_host("H1", header)
        # Any FlowMod marks the server dirty; the next report rebuilds and
        # must re-localize rather than reuse stale candidates.
        from repro.netmodel.rules import FlowRule, Forward, Match

        scenario.controller.install(
            "S1", FlowRule(50, Match.build(dst="99.0.0.0/8"), Forward(2))
        )
        net.inject_from_host("H1", header)
        assert server.localization_cache_hits == 0


class TestBuildMemosRetired:
    """Construction ends the BDD's memo generation on every boot path: the
    apply memos are build scratch once the table, its matchers and the
    initial slice proof exist, and the table itself must not notice."""

    @staticmethod
    def reference_fingerprint(scenario):
        from repro.bdd.headerspace import HeaderSpace
        from repro.core.pathtable import PathTableBuilder
        from repro.persist.snapshot import table_fingerprint

        hs = HeaderSpace()
        table = PathTableBuilder(scenario.topo, hs).build()
        return table_fingerprint(table, hs.bdd), hs.bdd.stats()["and_memo"]

    @staticmethod
    def check(server, fingerprint, generation=1):
        from repro.persist.snapshot import table_fingerprint

        memos = server.hs.bdd.stats()
        assert memos["and_memo"] == memos["or_memo"] == memos["diff_memo"] == 0
        assert memos["generation"] == generation
        assert server.stats()["bdd_generation"] == generation
        assert set(server.stats()["bdd_memos"].values()) == {0}
        assert table_fingerprint(server.table, server.hs.bdd) == fingerprint

    def test_static_build(self):
        scenario = build_linear(4)
        fingerprint, build_memos = self.reference_fingerprint(scenario)
        assert build_memos > 0  # there was something to retire
        self.check(VeriDPServer(scenario.topo, scenario.channel), fingerprint)

    def test_incremental_build_and_no_retirement_per_flush(self):
        # Seeded from the rule tree, which starts empty.
        scenario = build_linear(4, install_routes=False)
        fingerprint, _ = self.reference_fingerprint(scenario)
        server = VeriDPServer(
            scenario.topo, channel=None, incremental=True, coalesce_ms=5.0
        )
        self.check(server, fingerprint)
        # A flush is not a generation: consecutive flushes share operands,
        # so their memos stay for the next one.
        from repro.topologies.base import lpm_ruleset_for

        ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
        for switch in sorted(ruleset):
            for prefix, port in ruleset[switch]:
                server.apply_rule_update(switch, prefix, port)
        server.flush_pending_updates()
        assert server.hs.bdd.generation == 1
        assert sum(server.stats()["bdd_memos"].values()) > 0

    def test_state_dir_bootstrap_and_snapshot_boot(self, tmp_path):
        scenario = build_linear(4)
        fingerprint, _ = self.reference_fingerprint(scenario)
        server = VeriDPServer(scenario.topo, state_dir=str(tmp_path), fsync="never")
        assert server.boot_source == "bootstrap"
        self.check(server, fingerprint)
        server.close()
        server = VeriDPServer(scenario.topo, state_dir=str(tmp_path), fsync="never")
        assert server.boot_source == "snapshot"
        self.check(server, fingerprint)
        server.close()

    def test_set_slices_retires_its_initial_proof(self):
        from repro.slice.registry import SliceRegistry, TenantSpec

        scenario = build_linear(4)
        fingerprint, _ = self.reference_fingerprint(scenario)
        server = VeriDPServer(scenario.topo, scenario.channel)
        hosts = sorted(scenario.subnets)
        registry = SliceRegistry(server.hs, scenario.topo)
        for name, pair in (("red", hosts[:2]), ("blue", hosts[2:4])):
            registry.register(
                TenantSpec(
                    name=name,
                    prefixes=tuple(scenario.subnets[h] for h in pair),
                    hosts=tuple(pair),
                )
            )
        assert server.hs.bdd.stats()["and_memo"] > 0  # compiling footprints
        server.set_slices(registry)
        assert server.isolation.full_checks == 1
        self.check(server, fingerprint, generation=2)
