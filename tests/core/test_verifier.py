"""Unit tests for tag verification (Algorithm 3)."""

import pytest

from repro.bdd.headerspace import HeaderSpace
from repro.core.pathtable import PathTableBuilder
from repro.core.reports import TagReport
from repro.core.verifier import Verdict, Verifier
from repro.netmodel.packet import Header
from repro.netmodel.rules import DROP_PORT
from repro.netmodel.topology import PortRef
from repro.topologies import build_figure5


@pytest.fixture(scope="module")
def setup():
    scenario = build_figure5()
    hs = HeaderSpace()
    builder = PathTableBuilder(scenario.topo, hs)
    table = builder.build()
    return scenario, hs, builder, table


def good_report(scenario, table, hs, src="H1", dst="H3", dst_port=80):
    """A report exactly as a healthy data plane would send it."""
    inport = scenario.topo.host_port(src)
    outport = scenario.topo.host_port(dst)
    header = scenario.header_between(src, dst, dst_port=dst_port)
    for entry in table.lookup(inport, outport):
        if hs.contains(entry.headers, header.as_dict()):
            return TagReport(inport, outport, header, entry.tag), entry
    raise AssertionError("fixture produced no matching path")


class TestVerdicts:
    def test_pass_on_correct_report(self, setup):
        scenario, hs, builder, table = setup
        report, entry = good_report(scenario, table, hs)
        result = Verifier(table, hs).verify(report)
        assert result.verdict is Verdict.PASS
        assert result.passed
        assert result.matched_entry is entry

    def test_pass_on_middlebox_path(self, setup):
        scenario, hs, builder, table = setup
        report, _ = good_report(scenario, table, hs, dst_port=22)
        assert Verifier(table, hs).verify(report).passed

    def test_fail_on_wrong_tag(self, setup):
        scenario, hs, builder, table = setup
        report, entry = good_report(scenario, table, hs)
        bad = TagReport(report.inport, report.outport, report.header, entry.tag ^ 0x1)
        result = Verifier(table, hs).verify(bad)
        assert result.verdict is Verdict.FAIL_TAG_MISMATCH
        assert result.expected_tag == entry.tag

    def test_fail_unknown_pair(self, setup):
        scenario, hs, builder, table = setup
        report = TagReport(
            PortRef("S2", 1),  # internal port: never an index
            PortRef("S3", 2),
            Header(dst_port=80),
            0,
        )
        assert Verifier(table, hs).verify(report).verdict is Verdict.FAIL_UNKNOWN_PAIR

    def test_fail_no_path_for_header(self, setup):
        scenario, hs, builder, table = setup
        # H2's traffic to H3 is dropped at S3, so a *delivery* report for it
        # matches no path of the (S1:2, S3:2) pair.
        inport = scenario.topo.host_port("H2")
        outport = scenario.topo.host_port("H3")
        header = scenario.header_between("H2", "H3")
        result = Verifier(table, hs).verify(TagReport(inport, outport, header, 0))
        assert result.verdict in (Verdict.FAIL_NO_PATH, Verdict.FAIL_UNKNOWN_PAIR)
        assert not result.passed

    def test_drop_report_passes_when_configured(self, setup):
        """S3 is *supposed* to drop H2's traffic: the drop report verifies."""
        scenario, hs, builder, table = setup
        inport = scenario.topo.host_port("H2")
        outport = PortRef("S3", DROP_PORT)
        header = scenario.header_between("H2", "H3")
        entries = table.lookup(inport, outport)
        matching = [e for e in entries if hs.contains(e.headers, header.as_dict())]
        assert matching
        report = TagReport(inport, outport, header, matching[0].tag)
        assert Verifier(table, hs).verify(report).passed


class TestNoFalsePositives:
    def test_every_table_path_verifies(self, setup):
        """Zero false positives (Section 6.3): every configured path, when
        actually taken, passes verification."""
        scenario, hs, builder, table = setup
        verifier = Verifier(table, hs)
        for inport, outport, entry in table.all_entries():
            header = hs.sample_header(entry.headers)
            assert header is not None
            report = TagReport(inport, outport, Header(**header), entry.tag)
            assert verifier.verify(report).passed, f"{inport}->{outport} {entry}"


class TestCounters:
    def test_counters_accumulate(self, setup):
        scenario, hs, builder, table = setup
        verifier = Verifier(table, hs)
        report, entry = good_report(scenario, table, hs)
        verifier.verify(report)
        verifier.verify(
            TagReport(report.inport, report.outport, report.header, entry.tag ^ 1)
        )
        assert verifier.verified_count == 2
        assert verifier.failure_count == 1
        assert verifier.counters[Verdict.PASS] == 1
