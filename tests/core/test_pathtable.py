"""Unit tests for path-table construction (Algorithm 2)."""

import pytest

from repro.bdd.headerspace import HeaderSpace
from repro.core.pathtable import PathEntry, PathTable, PathTableBuilder
from repro.netmodel.hops import Hop
from repro.netmodel.rules import DROP_PORT
from repro.netmodel.topology import PortRef
from repro.topologies import build_figure5, build_linear, build_ring


@pytest.fixture(scope="module")
def figure5():
    scenario = build_figure5()
    hs = HeaderSpace()
    builder = PathTableBuilder(scenario.topo, hs)
    table = builder.build()
    return scenario, hs, builder, table


class TestPathTableStructure:
    def test_lookup_unknown_pair_is_empty(self):
        table = PathTable()
        assert table.lookup(PortRef("S1", 1), PortRef("S2", 1)) == ()

    def test_add_and_lookup(self):
        table = PathTable()
        entry = PathEntry(headers=1, hops=(Hop(1, "S", 2),), tag=3)
        table.add(PortRef("S", 1), PortRef("S", 2), entry)
        assert table.lookup(PortRef("S", 1), PortRef("S", 2)) == (entry,)
        assert table.num_paths() == 1
        assert len(table) == 1

    def test_lookup_result_is_immutable_snapshot(self):
        """Regression: lookup used to hand out the table's internal list —
        callers could corrupt the index by mutating it."""
        table = PathTable()
        entry = PathEntry(headers=1, hops=(Hop(1, "S", 2),), tag=3)
        table.add(PortRef("S", 1), PortRef("S", 2), entry)
        snapshot = table.lookup(PortRef("S", 1), PortRef("S", 2))
        with pytest.raises(AttributeError):
            snapshot.append(entry)  # tuples have no append
        assert table.num_paths() == 1
        # A later add is not visible through the earlier snapshot either.
        table.add(PortRef("S", 1), PortRef("S", 2), entry)
        assert len(snapshot) == 1
        assert len(table.lookup(PortRef("S", 1), PortRef("S", 2))) == 2

    def test_stats_empty_table(self):
        stats = PathTable().stats()
        assert stats.num_pairs == 0
        assert stats.num_paths == 0
        assert stats.avg_path_length == 0.0

    def test_paths_per_pair(self):
        table = PathTable()
        e = PathEntry(headers=1, hops=(Hop(1, "S", 2),), tag=0)
        table.add(PortRef("S", 1), PortRef("S", 2), e)
        table.add(PortRef("S", 1), PortRef("S", 2), e)
        table.add(PortRef("S", 2), PortRef("S", 1), e)
        assert sorted(table.paths_per_pair()) == [1, 2]

    def test_remove_empty(self):
        hs = HeaderSpace()
        table = PathTable()
        table.add(
            PortRef("S", 1),
            PortRef("S", 2),
            PathEntry(headers=hs.empty, hops=(Hop(1, "S", 2),), tag=0),
        )
        table.add(
            PortRef("S", 1),
            PortRef("S", 3),
            PathEntry(headers=hs.all_match, hops=(Hop(1, "S", 3),), tag=0),
        )
        assert table.remove_empty(hs) == 1
        assert len(table) == 1


class TestFigure5Table:
    """The paper's Table 1, entry by entry."""

    def test_ssh_path_via_middlebox(self, figure5):
        scenario, hs, builder, table = figure5
        entries = table.lookup(PortRef("S1", 1), PortRef("S3", 2))
        ssh = [
            e
            for e in entries
            if hs.contains(
                e.headers,
                scenario.header_between("H1", "H3", dst_port=22).as_dict(),
            )
        ]
        assert len(ssh) == 1
        assert ssh[0].hops == (
            Hop(1, "S1", 3),
            Hop(1, "S2", 3),
            Hop(3, "S2", 2),
            Hop(1, "S3", 2),
        )

    def test_non_ssh_path_direct(self, figure5):
        scenario, hs, builder, table = figure5
        entries = table.lookup(PortRef("S1", 1), PortRef("S3", 2))
        http = [
            e
            for e in entries
            if hs.contains(
                e.headers,
                scenario.header_between("H1", "H3", dst_port=80).as_dict(),
            )
        ]
        assert len(http) == 1
        assert http[0].hops == (Hop(1, "S1", 4), Hop(3, "S3", 2))

    def test_h2_traffic_has_drop_path(self, figure5):
        scenario, hs, builder, table = figure5
        entries = table.lookup(PortRef("S1", 2), PortRef("S3", DROP_PORT))
        header = scenario.header_between("H2", "H3", dst_port=80).as_dict()
        assert any(hs.contains(e.headers, header) for e in entries)

    def test_two_paths_for_h1_to_h3_pair(self, figure5):
        _, _, _, table = figure5
        assert len(table.lookup(PortRef("S1", 1), PortRef("S3", 2))) == 2

    def test_tags_differ_between_paths(self, figure5):
        _, _, _, table = figure5
        entries = table.lookup(PortRef("S1", 1), PortRef("S3", 2))
        assert entries[0].tag != entries[1].tag

    def test_header_sets_disjoint_within_pair(self, figure5):
        _, hs, _, table = figure5
        for pair in table.pairs():
            entries = table.lookup(*pair)
            for i, a in enumerate(entries):
                for b in entries[i + 1 :]:
                    assert hs.bdd.and_(a.headers, b.headers) == hs.empty

    def test_tags_match_hop_recomputation(self, figure5):
        _, _, builder, table = figure5
        for _, _, entry in table.all_entries():
            assert entry.tag == builder.scheme.tag_of_path(entry.hops)

    def test_no_empty_header_sets(self, figure5):
        _, hs, _, table = figure5
        for _, _, entry in table.all_entries():
            assert entry.headers != hs.empty


class TestBuilderOnLinear:
    def test_every_host_pair_has_a_path(self):
        scenario = build_linear(4)
        hs = HeaderSpace()
        table = PathTableBuilder(scenario.topo, hs).build()
        topo = scenario.topo
        for src, dst in scenario.host_pairs():
            inport = topo.host_port(src)
            outport = topo.host_port(dst)
            header = scenario.header_between(src, dst).as_dict()
            entries = table.lookup(inport, outport)
            assert any(hs.contains(e.headers, header) for e in entries), (
                f"no path for {src}->{dst}"
            )

    def test_entry_ports_are_edge_ports(self):
        scenario = build_linear(3)
        builder = PathTableBuilder(scenario.topo, HeaderSpace())
        for port in builder.entry_ports():
            assert scenario.topo.is_edge_port(port)

    def test_custom_entry_ports(self):
        scenario = build_linear(3)
        hs = HeaderSpace()
        one_port = [scenario.topo.host_port("H1")]
        table = PathTableBuilder(scenario.topo, hs, entry_ports=one_port).build()
        assert all(pair[0] == one_port[0] for pair in table.pairs())

    def test_build_time_recorded(self):
        scenario = build_linear(3)
        table = PathTableBuilder(scenario.topo, HeaderSpace()).build()
        assert table.build_time_s > 0


class TestLoopCut:
    def test_ring_with_looping_rules_terminates(self):
        """Install rules that loop all traffic around the ring; the builder
        must cut the loop (Section 6.1's rule) and record no infinite path."""
        from repro.netmodel.rules import FlowRule, Forward, Match

        scenario = build_ring(4, install_routes=False)
        for sid in scenario.topo.switches:
            scenario.controller.install(sid, FlowRule(10, Match(), Forward(2)))
        table = PathTableBuilder(scenario.topo, HeaderSpace()).build()
        max_len = scenario.topo.diameter_bound()
        for _, _, entry in table.all_entries():
            assert entry.path_length() <= max_len


class TestExpectedPath:
    def test_expected_path_matches_table(self, figure5):
        scenario, hs, builder, table = figure5
        header = scenario.header_between("H1", "H3", dst_port=22).as_dict()
        hops = builder.expected_path(PortRef("S1", 1), header)
        assert hops == [
            Hop(1, "S1", 3),
            Hop(1, "S2", 3),
            Hop(3, "S2", 2),
            Hop(1, "S3", 2),
        ]

    def test_expected_path_of_dropped_traffic_ends_at_drop(self, figure5):
        scenario, hs, builder, table = figure5
        header = scenario.header_between("H2", "H3").as_dict()
        hops = builder.expected_path(PortRef("S1", 2), header)
        assert hops[-1].out_port == DROP_PORT

    def test_reach_records_only_when_enabled(self, figure5):
        scenario, hs, builder, table = figure5
        assert builder.reach_index == {}
        recording = PathTableBuilder(scenario.topo, hs, record_reach=True)
        recording.build()
        assert set(recording.reach_index) == {"S1", "S2", "S3"}
