"""Tests for the compiled-matcher verification fast path.

Covers flat-compiled BDD matchers, :func:`match_pair`'s verdict parity
with the paper-literal oracle, batch verification, and coherence with
``core.incremental`` updates (the compiled indexes must observe rule
adds/deletes and rebuild, never serve stale verdicts).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.timing import check_fastpath_parity, reports_from_table
from repro.bdd.engine import FALSE, TRUE
from repro.bdd.headerspace import HeaderSpace
from repro.core.incremental import IncrementalPathTable
from repro.core.pathtable import PathTableBuilder
from repro.core.replica import build_pair_spec
from repro.core.reports import TagReport
from repro.core.verifier import Verdict, Verifier
from repro.netmodel.packet import Header
from repro.topologies import build_figure5, build_linear
from repro.topologies.base import lpm_ruleset_for

headers = st.builds(
    Header,
    src_ip=st.integers(min_value=0, max_value=(1 << 32) - 1),
    dst_ip=st.integers(min_value=0, max_value=(1 << 32) - 1),
    proto=st.integers(min_value=0, max_value=255),
    src_port=st.integers(min_value=0, max_value=65535),
    dst_port=st.integers(min_value=0, max_value=65535),
)


@pytest.fixture(scope="module")
def figure5():
    scenario = build_figure5()
    hs = HeaderSpace()
    builder = PathTableBuilder(scenario.topo, hs)
    table = builder.build()
    table.compile_matchers(hs)
    return scenario, hs, builder, table


class TestFlatBDD:
    def test_terminals(self):
        hs = HeaderSpace()
        assert hs.bdd.compile_flat(FALSE).evaluate_value(0) is False
        assert hs.bdd.compile_flat(TRUE).evaluate_value(0) is True

    @given(headers)
    @settings(max_examples=200, deadline=None)
    def test_flat_evaluation_matches_recursive_contains(self, header):
        """compile_flat + header_value agree with the recursive reference
        on an asymmetric predicate exercising every field."""
        hs = HeaderSpace()
        f = hs.bdd.and_(
            hs.prefix("dst_ip", 0x0A000000, 8),
            hs.bdd.or_(hs.exact("proto", 6), hs.range_("dst_port", 22, 80)),
        )
        flat = hs.bdd.compile_flat(f)
        as_dict = header.as_dict()
        assert flat.evaluate_value(hs.header_value(as_dict)) == hs.contains(f, as_dict)

    def test_entry_matchers_match_entry_headers(self, figure5):
        _, hs, builder, table = figure5
        for _, _, entry in table.all_entries():
            target = entry.exit_header_set()
            header = hs.sample_header(entry.headers)
            assert header is not None
            value = hs.header_value(header)
            assert hs.bdd.compile_flat(target).evaluate_value(value)
            assert hs.bdd.evaluate_value(target, value)


class TestFastSlowParity:
    def test_parity_on_table_reports(self, figure5):
        _, hs, builder, table = figure5
        reports = reports_from_table(builder, table)
        assert reports
        assert check_fastpath_parity(builder, table, reports) == []

    def test_parity_on_tampered_reports(self, figure5):
        """Wrong tags, wrong pairs and alien headers must fail identically."""
        _, hs, builder, table = figure5
        reports = reports_from_table(builder, table)
        tampered = [
            TagReport(r.inport, r.outport, r.header, r.tag ^ 0x5A5A) for r in reports
        ]
        tampered += [
            TagReport(r.outport, r.inport, r.header, r.tag) for r in reports
        ]
        assert check_fastpath_parity(builder, table, tampered) == []

    @given(headers, st.integers(min_value=0, max_value=(1 << 16) - 1))
    @settings(max_examples=150, deadline=None)
    def test_parity_on_random_reports(self, figure5, header, tag):
        """Property: on arbitrary (header, tag) reports over every known
        pair, the compiled fast path returns the exact verdict and matched
        entry of the recursive-BDD reference."""
        _, hs, builder, table = figure5
        fast = Verifier(table, hs, fast_path=True)
        slow = Verifier(table, hs, fast_path=False)
        for inport, outport in table.pairs():
            report = TagReport(inport, outport, header, tag)
            f = fast.verify(report)
            s = slow.verify(report)
            assert f.verdict is s.verdict
            assert f.matched_entry is s.matched_entry


class TestVerifyBatch:
    def test_batch_matches_sequential_verdicts(self, figure5):
        _, hs, builder, table = figure5
        reports = reports_from_table(builder, table)
        bad = TagReport(
            reports[0].inport, reports[0].outport, reports[0].header, reports[0].tag ^ 1
        )
        mixed = reports + [bad]
        batch = Verifier(table, hs).verify_batch(mixed)
        sequential = [Verifier(table, hs).verify(r).verdict for r in mixed]
        assert batch.verdicts == sequential
        assert batch.reports == len(mixed)
        assert batch.passed_count == len(reports)
        assert batch.passed_count < batch.reports
        assert batch.elapsed_s > 0
        assert batch.mean_us > 0

    def test_batch_failures_carry_context(self, figure5):
        _, hs, builder, table = figure5
        reports = reports_from_table(builder, table)
        bad = TagReport(
            reports[0].inport, reports[0].outport, reports[0].header, reports[0].tag ^ 1
        )
        batch = Verifier(table, hs).verify_batch(reports + [bad])
        assert len(batch.failures) == 1
        result = batch.failures[0]
        assert result.report is bad
        assert result.verdict is Verdict.FAIL_TAG_MISMATCH
        assert result.expected_tag == reports[0].tag

    def test_batch_counts_sum_to_reports(self, figure5):
        _, hs, builder, table = figure5
        reports = reports_from_table(builder, table)
        batch = Verifier(table, hs).verify_batch(reports)
        assert sum(batch.counts.values()) == batch.reports
        assert batch.counts[Verdict.PASS] == len(reports)

    def test_batch_feeds_verifier_counters(self, figure5):
        _, hs, builder, table = figure5
        reports = reports_from_table(builder, table)
        verifier = Verifier(table, hs)
        verifier.verify_batch(reports)
        assert verifier.verified_count == len(reports)
        assert verifier.failure_count == 0

    def test_empty_batch(self, figure5):
        _, hs, builder, table = figure5
        batch = Verifier(table, hs).verify_batch([])
        assert batch.reports == 0
        assert batch.passed_count == batch.reports
        assert batch.mean_us == 0.0


class TestIncrementalCoherence:
    """The fast path must observe ``core.incremental`` rule changes."""

    def _rig(self):
        scenario = build_linear(3, install_routes=False)
        hs = HeaderSpace()
        inc = IncrementalPathTable(scenario.topo, hs)
        ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
        for switch, rules in sorted(ruleset.items()):
            for prefix, port in rules:
                inc.add_rule(switch, prefix, port)
        inc.table.compile_matchers(hs)
        return scenario, hs, inc, ruleset

    def _sample_reports(self, hs, table):
        reports = []
        for inport, outport, entry in table.all_entries():
            header = hs.sample_header(entry.headers)
            if header is not None:
                reports.append(TagReport(inport, outport, Header(**header), entry.tag))
        return reports

    def test_rule_changes_bump_table_version(self):
        scenario, hs, inc, ruleset = self._rig()
        v0 = inc.table.version
        inc.delete_rule("S3", ruleset["S3"][0][0])
        v1 = inc.table.version
        assert v1 > v0
        inc.add_rule("S3", *ruleset["S3"][0])
        assert inc.table.version > v1

    def test_stale_cache_never_served_after_delete(self):
        scenario, hs, inc, ruleset = self._rig()
        reports = self._sample_reports(hs, inc.table)
        assert reports
        verifier = Verifier(inc.table, hs, fast_path=True)
        batch = verifier.verify_batch(reports)
        assert batch.passed_count == batch.reports

        # Remove the last-hop route: the old reports describe paths that no
        # longer exist, so a PASS from the old index would be stale.
        prefix, _ = ruleset["S3"][0]
        inc.delete_rule("S3", prefix)
        slow = Verifier(inc.table, hs, fast_path=False)
        for report in reports:
            f = verifier.verify(report)
            s = slow.verify(report)
            assert f.verdict is s.verdict
            assert f.matched_entry is s.matched_entry
        assert any(not verifier.verify(r).passed for r in reports)

    def test_readd_restores_pass_through_fast_path(self):
        scenario, hs, inc, ruleset = self._rig()
        reports = self._sample_reports(hs, inc.table)
        verifier = Verifier(inc.table, hs, fast_path=True)
        prefix, port = ruleset["S3"][0]
        inc.delete_rule("S3", prefix)
        verifier.verify_batch(reports)  # verified against the deleted state
        inc.add_rule("S3", prefix, port)
        batch = verifier.verify_batch(reports)
        assert batch.passed_count == batch.reports

    def test_compiled_matchers_rebuilt_after_update(self):
        """Matchers follow an entry whose header set the incremental updater
        mutated in place: a pair spec built afterwards points at the
        entries' current exit-header sets, in the manager's own nodes."""
        scenario, hs, inc, ruleset = self._rig()
        prefix, port = ruleset["S1"][0]
        inc.delete_rule("S1", prefix)
        inc.add_rule("S1", prefix, port)
        for inport, outport in inc.table.pairs():
            _, pool, _, _ = build_pair_spec(inc.table, hs, inport, outport)
            assert pool.level is hs.bdd._level
            assert pool.roots == tuple(
                entry.exit_header_set() for entry in inc.table.lookup(inport, outport)
            )
        # at least the parity invariant: verdicts equal slow path
        reports = self._sample_reports(hs, inc.table)
        fast = Verifier(inc.table, hs, fast_path=True)
        slow = Verifier(inc.table, hs, fast_path=False)
        for report in reports:
            assert fast.verify(report).verdict is slow.verify(report).verdict
