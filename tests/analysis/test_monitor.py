"""Tests for the incident aggregator."""

import pytest

from repro.analysis.monitor import IncidentAggregator
from repro.core.localization import CandidatePath, LocalizationResult
from repro.core.reports import TagReport
from repro.core.server import Incident, VeriDPServer
from repro.core.verifier import VerificationResult, Verdict
from repro.dataplane import DataPlaneNetwork, ModifyRuleOutput
from repro.netmodel.hops import Hop
from repro.netmodel.packet import Header
from repro.netmodel.topology import PortRef
from repro.topologies import build_linear


def fake_incident(blamed=("S2",), verdict=Verdict.FAIL_TAG_MISMATCH,
                  inport=("S1", 1), outport=("S3", 1)):
    report = TagReport(PortRef(*inport), PortRef(*outport), Header(), 0)
    verification = VerificationResult(verdict=verdict, report=report)
    localization = LocalizationResult(report=report)
    for switch in blamed:
        localization.candidates.append(
            CandidatePath((Hop(1, switch, 2),), switch)
        )
    return Incident(verification=verification, localization=localization)


class TestIngestion:
    def test_counts(self):
        agg = IncidentAggregator()
        agg.ingest(fake_incident(), now=1.0)
        agg.ingest(fake_incident(), now=2.0)
        assert agg.active_count == 2
        assert agg.total_ingested == 2

    def test_batch_ingest(self):
        agg = IncidentAggregator()
        agg.ingest_all([fake_incident(), fake_incident()], now=0.0)
        assert agg.active_count == 2

    def test_window_prunes(self):
        agg = IncidentAggregator(window_s=10.0)
        agg.ingest(fake_incident(), now=0.0)
        agg.ingest(fake_incident(), now=5.0)
        agg.ingest(fake_incident(), now=20.0)  # pushes horizon to 10
        assert agg.active_count == 1
        assert agg.total_ingested == 3

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            IncidentAggregator(window_s=0)


class TestRollups:
    def test_verdict_counts(self):
        agg = IncidentAggregator()
        agg.ingest(fake_incident(verdict=Verdict.FAIL_TAG_MISMATCH))
        agg.ingest(fake_incident(verdict=Verdict.FAIL_NO_PATH))
        agg.ingest(fake_incident(verdict=Verdict.FAIL_NO_PATH))
        counts = agg.verdict_counts()
        assert counts[Verdict.FAIL_NO_PATH] == 2
        assert counts[Verdict.FAIL_TAG_MISMATCH] == 1

    def test_failures_by_pair(self):
        agg = IncidentAggregator()
        agg.ingest(fake_incident(inport=("S1", 1)))
        agg.ingest(fake_incident(inport=("S1", 1)))
        agg.ingest(fake_incident(inport=("S1", 2)))
        pairs = agg.failures_by_pair()
        assert pairs[(PortRef("S1", 1), PortRef("S3", 1))] == 2
        assert len(pairs) == 2

    def test_top_suspects_ranked(self):
        agg = IncidentAggregator()
        for _ in range(3):
            agg.ingest(fake_incident(blamed=("S2",)), now=1.0)
        agg.ingest(fake_incident(blamed=("S9",)), now=2.0)
        suspects = agg.top_suspects(limit=2)
        assert [s.switch_id for s in suspects] == ["S2", "S9"]
        assert suspects[0].incident_count == 3
        assert suspects[0].first_seen == suspects[0].last_seen == 1.0

    def test_unlocalized(self):
        agg = IncidentAggregator()
        agg.ingest(fake_incident(blamed=()))
        assert agg.unlocalized_count() == 1

    def test_summary_and_render(self):
        agg = IncidentAggregator()
        agg.ingest(fake_incident(blamed=("S2",)))
        summary = agg.summary()
        assert summary["active_incidents"] == 1
        assert summary["top_suspects"][0]["switch"] == "S2"
        text = agg.render()
        assert "S2" in text and "incidents: 1" in text


class TestEndToEnd:
    def test_aggregates_real_incidents(self):
        scenario = build_linear(3)
        server = VeriDPServer(scenario.topo, scenario.channel)
        net = DataPlaneNetwork(
            scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
        )
        header = scenario.header_between("H1", "H3")
        rule = net.switch("S2").table.lookup(header, 3)
        ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
        for _ in range(4):
            net.inject_from_host("H1", header)
        agg = IncidentAggregator()
        agg.ingest_all(server.drain_incidents(), now=1.0)
        assert agg.active_count == 4
        assert agg.top_suspects()[0].switch_id == "S2"
