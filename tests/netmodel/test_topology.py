"""Unit tests for the topology model."""

import pytest

from repro.netmodel.rules import DROP_PORT
from repro.netmodel.topology import PortRef, Topology


@pytest.fixture
def triangle():
    """Three switches in a triangle, one host on S1 and one on S3."""
    topo = Topology("triangle")
    for sid in ("S1", "S2", "S3"):
        topo.add_switch(sid, num_ports=4)
    topo.add_link("S1", 3, "S2", 1)
    topo.add_link("S2", 3, "S3", 1)
    topo.add_link("S1", 4, "S3", 3)
    topo.add_host("H1", "S1", 1)
    topo.add_host("H2", "S3", 2)
    return topo


class TestConstruction:
    def test_duplicate_switch_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_switch("S1")

    def test_link_registers_both_directions(self, triangle):
        assert triangle.link(PortRef("S1", 3)) == PortRef("S2", 1)
        assert triangle.link(PortRef("S2", 1)) == PortRef("S1", 3)

    def test_double_link_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_link("S1", 3, "S3", 4)

    def test_self_link_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_link("S1", 2, "S1", 2)

    def test_host_on_linked_port_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_host("H9", "S1", 3)

    def test_link_on_host_port_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_link("S1", 1, "S2", 4)

    def test_duplicate_host_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_host("H1", "S2", 4)

    def test_nonpositive_port_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_port("S1", 0)

    def test_unknown_switch_raises_keyerror(self, triangle):
        with pytest.raises(KeyError):
            triangle.switch("S9")


class TestClassification:
    def test_host_port_is_edge(self, triangle):
        assert triangle.is_edge_port(PortRef("S1", 1))

    def test_linked_port_is_internal(self, triangle):
        assert not triangle.is_edge_port(PortRef("S1", 3))

    def test_unwired_port_is_edge(self, triangle):
        assert triangle.is_edge_port(PortRef("S2", 2))

    def test_drop_port_is_not_edge(self, triangle):
        assert not triangle.is_edge_port(PortRef("S1", DROP_PORT))

    def test_edge_ports_sorted_and_complete(self, triangle):
        edges = triangle.edge_ports()
        assert PortRef("S1", 1) in edges
        assert PortRef("S3", 2) in edges
        assert PortRef("S1", 3) not in edges
        assert edges == sorted(edges)


class TestQueries:
    def test_host_lookup_round_trip(self, triangle):
        ref = triangle.host_port("H1")
        assert ref == PortRef("S1", 1)
        assert triangle.host_at(ref) == "H1"

    def test_unknown_host(self, triangle):
        with pytest.raises(KeyError):
            triangle.host_port("H9")

    def test_hosts_sorted(self, triangle):
        assert triangle.hosts() == ["H1", "H2"]

    def test_neighbors(self, triangle):
        assert triangle.neighbors("S1") == ["S2", "S3"]
        assert triangle.neighbors("S2") == ["S1", "S3"]

    def test_internal_links_deduplicated(self, triangle):
        links = triangle.internal_links()
        assert len(links) == 3

    def test_ports_of(self, triangle):
        assert triangle.ports_of("S1") == [1, 2, 3, 4]

    def test_stats(self, triangle):
        stats = triangle.stats()
        assert stats["switches"] == 3
        assert stats["links"] == 3
        assert stats["hosts"] == 2
        assert stats["rules"] == 0


class TestDerived:
    def test_to_networkx(self, triangle):
        graph = triangle.to_networkx()
        assert set(graph.nodes) == {"S1", "S2", "S3"}
        assert graph.number_of_edges() == 3
        ports = graph.edges["S1", "S2"]["ports"]
        assert ports == {"S1": 3, "S2": 1}

    def test_validate_passes(self, triangle):
        triangle.validate()

    def test_diameter_bound_covers_revisits(self, triangle):
        assert triangle.diameter_bound() >= 6

    def test_str(self, triangle):
        assert "3 switches" in str(triangle)
