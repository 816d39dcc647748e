"""Tests for topology serialisation and the random generators."""

import json

import pytest

from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.topologies import (
    build_figure5,
    build_jellyfish,
    build_linear,
    build_random,
    load_scenario,
    save_scenario,
    topology_from_dict,
    topology_to_dict,
)


class TestSerialization:
    def test_round_trip_structure(self, tmp_path):
        scenario = build_linear(4)
        path = tmp_path / "linear.json"
        save_scenario(scenario, str(path))
        loaded = load_scenario(str(path))
        assert loaded.topo.stats() == scenario.topo.stats()
        assert loaded.subnets == scenario.subnets
        assert loaded.host_ips == scenario.host_ips

    def test_round_trip_preserves_links(self):
        scenario = build_linear(3)
        data = topology_to_dict(scenario.topo, scenario.subnets, scenario.host_ips)
        topo, _, _ = topology_from_dict(data)
        assert topo.internal_links() == scenario.topo.internal_links()

    def test_round_trip_middleboxes(self):
        scenario = build_figure5()
        data = topology_to_dict(scenario.topo)
        topo, _, _ = topology_from_dict(data)
        assert topo.middleboxes() == ["MB"]
        assert topo.link(topo.middlebox_port("MB")) == topo.middlebox_port("MB")

    def test_loaded_scenario_is_operational(self, tmp_path):
        scenario = build_linear(3)
        path = tmp_path / "net.json"
        save_scenario(scenario, str(path))
        loaded = load_scenario(str(path))
        server = VeriDPServer(loaded.topo, loaded.channel)
        net = DataPlaneNetwork(
            loaded.topo, loaded.channel, report_sink=server.receive_report_bytes
        )
        result = net.inject_from_host("H1", loaded.header_between("H1", "H3"))
        assert result.status == "delivered"
        assert server.stats()["failed"] == 0

    def test_json_is_stable(self, tmp_path):
        scenario = build_linear(3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(scenario, str(a))
        save_scenario(scenario, str(b))
        assert a.read_text() == b.read_text()

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            topology_from_dict({"format_version": 99})

    def test_document_is_json_clean(self):
        scenario = build_figure5()
        text = json.dumps(topology_to_dict(scenario.topo))
        assert "S2" in text


class TestRandomTopologies:
    def test_deterministic_per_seed(self):
        a = build_random(seed=5, install_routes=False)
        b = build_random(seed=5, install_routes=False)
        assert a.topo.internal_links() == b.topo.internal_links()

    def test_different_seeds_differ(self):
        a = build_random(seed=1, install_routes=False)
        b = build_random(seed=2, install_routes=False)
        assert a.topo.internal_links() != b.topo.internal_links()

    def test_connected_and_routable(self):
        scenario = build_random(num_switches=6, hosts=4, seed=7)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        for src, dst in scenario.host_pairs():
            result = net.inject_from_host(src, scenario.header_between(src, dst))
            assert result.status == "delivered", f"{src}->{dst}"

    def test_validation(self):
        build_random(seed=0).topo.validate()
        with pytest.raises(ValueError):
            build_random(num_switches=1)
        with pytest.raises(ValueError):
            build_random(hosts=0)

    def test_veridp_on_random_topology(self):
        """End-to-end sanity on an irregular network: clean traffic verifies."""
        scenario = build_random(num_switches=7, extra_links=5, hosts=5, seed=11)
        server = VeriDPServer(scenario.topo, scenario.channel)
        net = DataPlaneNetwork(
            scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
        )
        for src, dst in scenario.host_pairs():
            net.inject_from_host(src, scenario.header_between(src, dst))
        assert server.stats()["failed"] == 0


class TestJellyfish:
    def test_regular_degree(self):
        scenario = build_jellyfish(num_switches=8, degree=3, seed=2,
                                   install_routes=False)
        for sid in scenario.topo.switches:
            assert len(scenario.topo.neighbors(sid)) == 3

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            build_jellyfish(num_switches=5, degree=3)

    def test_routable(self):
        scenario = build_jellyfish(num_switches=8, degree=3, hosts=4, seed=2)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        for src, dst in scenario.host_pairs():
            assert (
                net.inject_from_host(src, scenario.header_between(src, dst)).status
                == "delivered"
            )
