"""Unit tests for the small topology generators and the Figure 5 network."""

import pytest

from repro.dataplane import DataPlaneNetwork
from repro.topologies import (
    build_figure5,
    build_grid,
    build_linear,
    build_ring,
    build_star,
)


class TestLinear:
    def test_structure(self):
        scenario = build_linear(5)
        stats = scenario.topo.stats()
        assert stats["switches"] == 5
        assert stats["links"] == 4
        assert stats["hosts"] == 5
        scenario.topo.validate()

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_linear(1)

    def test_connectivity(self):
        scenario = build_linear(4)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        for src, dst in scenario.host_pairs():
            assert (
                net.inject_from_host(src, scenario.header_between(src, dst)).status
                == "delivered"
            )


class TestRing:
    def test_structure(self):
        scenario = build_ring(5)
        stats = scenario.topo.stats()
        assert stats["switches"] == 5
        assert stats["links"] == 5
        scenario.topo.validate()

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_ring(2)

    def test_connectivity(self):
        scenario = build_ring(4)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        for src, dst in scenario.host_pairs():
            assert (
                net.inject_from_host(src, scenario.header_between(src, dst)).status
                == "delivered"
            )


class TestStar:
    def test_structure(self):
        scenario = build_star(6)
        stats = scenario.topo.stats()
        assert stats["switches"] == 7  # hub + 6 leaves
        assert stats["links"] == 6
        scenario.topo.validate()

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_star(1)

    def test_all_paths_cross_hub(self):
        scenario = build_star(3)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        result = net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert "HUB" in [h.switch for h in result.hops]


class TestGrid:
    def test_structure(self):
        scenario = build_grid(3, 2)
        stats = scenario.topo.stats()
        assert stats["switches"] == 6
        assert stats["links"] == 7  # 2 per row x 2 rows + 3 vertical
        scenario.topo.validate()

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_grid(1, 5)

    def test_hosts_on_corners(self):
        scenario = build_grid(3, 3)
        assert len(scenario.topo.hosts()) == 4


class TestFigure5:
    def test_structure(self):
        scenario = build_figure5()
        topo = scenario.topo
        assert sorted(topo.switches) == ["S1", "S2", "S3"]
        assert topo.hosts() == ["H1", "H2", "H3"]
        assert topo.middleboxes() == ["MB"]
        topo.validate()

    def test_middlebox_port_bounces(self):
        scenario = build_figure5()
        mb_port = scenario.topo.middlebox_port("MB")
        assert scenario.topo.link(mb_port) == mb_port
        assert not scenario.topo.is_edge_port(mb_port)

    def test_rule_count_matches_figure(self):
        scenario = build_figure5()
        # Figure 5 shows 10 rules; we install the 6 that matter for the
        # Table 1 fragment (plain connectivity back-paths are omitted).
        total = sum(
            len(info.flow_table) for info in scenario.topo.switches.values()
        )
        assert total == 6

    def test_notes_mention_table1(self):
        assert "Table 1" in build_figure5().notes
