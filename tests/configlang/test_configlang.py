"""Tests for the mini configuration language (parser, writer, loader)."""

import pytest

from repro.bdd.headerspace import HeaderSpace, parse_prefix
from repro.configlang import (
    ConfigError,
    UnrepresentableError,
    export_network,
    load_network,
    parse_config,
    write_config,
)
from repro.core.pathtable import PathTableBuilder
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.netmodel.packet import Header, PROTO_TCP
from repro.netmodel.rules import Acl, AclEntry, Forward, Match
from repro.topologies import build_internet2, build_linear

SAMPLE = """
hostname boza
!
ip route 171.64.0.0/16 port1
ip route 172.20.10.32/27 port3
ip route 10.9.0.0/16 drop
!
access-list 101 deny ip any 10.0.0.0/8
access-list 101 permit tcp 171.64.0.0/16 any eq 22
access-list 101 permit ip any any
!
interface port1
  ip access-group 101 in
interface port3
  ip access-group 101 out
"""


class TestParser:
    def test_hostname(self):
        assert parse_config(SAMPLE).hostname == "boza"

    def test_routes(self):
        config = parse_config(SAMPLE)
        assert len(config.routes) == 3
        assert config.routes[0].prefix == parse_prefix("171.64.0.0/16")
        assert config.routes[0].out_port == 1
        assert config.routes[2].out_port is None  # drop route
        assert config.routes[1].priority == 27  # LPM priority

    def test_acl_entries(self):
        config = parse_config(SAMPLE)
        entries = config.acls[101]
        assert len(entries) == 3
        assert entries[0].permit is False
        assert entries[0].match.dst_prefix == parse_prefix("10.0.0.0/8")
        assert entries[1].match.proto == PROTO_TCP
        assert entries[1].match.dst_port_range == (22, 22)
        assert entries[2].match.src_prefix is None  # any

    def test_bindings(self):
        config = parse_config(SAMPLE)
        assert (1, "in", 101) in config.bindings
        assert (3, "out", 101) in config.bindings

    def test_comments_and_blanks_ignored(self):
        config = parse_config("! just a comment\n\nhostname x\n")
        assert config.hostname == "x"

    @pytest.mark.parametrize(
        "bad",
        [
            "frobnicate port1",
            "ip route any port1",
            "ip route 10.0.0.0/8",
            "ip route 10.0.0.0/8 eth0",
            "interface port0",
            "access-list abc permit ip any any",
            "access-list 1 maybe ip any any",
            "access-list 1 permit gre any any",
            "access-list 1 permit ip any any eq nonsense",
            "access-list 1 permit ip any any eq 70000",
            "access-list 1 permit ip any any extra tokens",
            "ip access-group 1 in",  # outside interface block
            "hostname a b",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("hostname x\nbogus line\n")
        assert excinfo.value.line_no == 2


class TestApplyTo:
    def test_routes_become_lpm_rules(self):
        from repro.netmodel.topology import SwitchInfo

        config = parse_config(SAMPLE)
        info = SwitchInfo("boza")
        info.ports.update({1, 2, 3})
        config.apply_to(info)
        header = Header.from_strings("1.2.3.4", "172.20.10.33")
        rule = info.flow_table.lookup(header)
        assert rule.output_port() == 3  # /27 beats /16... no /16 overlap here

    def test_acl_implicit_deny(self):
        from repro.netmodel.topology import SwitchInfo

        config = parse_config(
            "access-list 5 permit ip any 171.64.0.0/16\n"
            "interface port1\n"
            "  ip access-group 5 in\n"
        )
        info = SwitchInfo("r")
        config.apply_to(info)
        acl = info.in_acl[1]
        # Unmatched traffic hits Cisco's implicit deny.
        assert not acl.permits(Header.from_strings("9.9.9.9", "171.63.0.1"))
        # Explicit permits pass.
        assert acl.permits(Header.from_strings("9.9.9.9", "171.64.5.1"))

    def test_sample_acl_trailing_permit_any(self):
        from repro.netmodel.topology import SwitchInfo

        config = parse_config(SAMPLE)
        info = SwitchInfo("boza")
        config.apply_to(info)
        acl = info.in_acl[1]
        assert acl.permits(Header.from_strings("9.9.9.9", "171.63.0.1"))
        assert not acl.permits(Header.from_strings("9.9.9.9", "10.1.2.3"))

    def test_undefined_acl_binding_raises(self):
        from repro.netmodel.topology import SwitchInfo

        config = parse_config("interface port1\n  ip access-group 9 in\n")
        with pytest.raises(ConfigError):
            config.apply_to(SwitchInfo("x"))


class TestWriter:
    def test_round_trip_semantics(self):
        """parse(write(config)) produces the same forwarding behaviour."""
        from repro.netmodel.topology import SwitchInfo

        original = parse_config(SAMPLE)
        info = SwitchInfo("boza")
        info.ports.update({1, 2, 3})
        original.apply_to(info)
        text = write_config(info)
        reparsed = parse_config(text)
        info2 = SwitchInfo("boza")
        info2.ports.update({1, 2, 3})
        reparsed.apply_to(info2)

        hs = HeaderSpace()
        from repro.netmodel.predicates import SwitchPredicates

        map1 = SwitchPredicates(info, hs).transfer_map(1)
        map2 = SwitchPredicates(info2, hs).transfer_map(1)
        assert map1 == map2

    def test_rejects_non_route_rules(self):
        from repro.netmodel.rules import FlowRule
        from repro.netmodel.topology import SwitchInfo

        info = SwitchInfo("r")
        info.flow_table.add(FlowRule(10, Match.build(dst_port=22), Forward(1)))
        with pytest.raises(UnrepresentableError):
            write_config(info)

    def test_rejects_anti_lpm_priorities(self):
        from repro.netmodel.rules import FlowRule
        from repro.netmodel.topology import SwitchInfo

        info = SwitchInfo("r")
        # The /8 outranks the /24 it contains: contradicts LPM.
        info.flow_table.add(FlowRule(99, Match.build(dst="10.0.0.0/8"), Forward(1)))
        info.flow_table.add(FlowRule(1, Match.build(dst="10.0.1.0/24"), Forward(2)))
        with pytest.raises(UnrepresentableError):
            write_config(info)

    def test_rejects_default_permit_acl(self):
        from repro.netmodel.topology import SwitchInfo

        info = SwitchInfo("r")
        info.in_acl[1] = Acl([AclEntry(Match.build(dst_port=22), False)],
                             default_permit=True)
        with pytest.raises(UnrepresentableError):
            write_config(info)


class TestLoaderRoundTrip:
    def test_export_and_load_internet2(self, tmp_path):
        """Full circle: scenario -> config dir -> scenario, same path table."""
        original = build_internet2(prefixes_per_pop=1)
        directory = str(tmp_path / "i2")
        written = export_network(original, directory)
        assert len(written) == 1 + 9  # topology.json + 9 PoPs

        loaded = load_network(directory)
        hs1, hs2 = HeaderSpace(), HeaderSpace()
        table1 = PathTableBuilder(original.topo, hs1).build()
        table2 = PathTableBuilder(loaded.topo, hs2).build()
        sig1 = {(i, o, e.hops) for i, o, e in table1.all_entries()}
        sig2 = {(i, o, e.hops) for i, o, e in table2.all_entries()}
        assert sig1 == sig2

    def test_loaded_network_runs_veridp(self, tmp_path):
        original = build_linear(3)
        directory = str(tmp_path / "lin")
        export_network(original, directory)
        loaded = load_network(directory)
        server = VeriDPServer(loaded.topo, loaded.channel)
        net = DataPlaneNetwork(
            loaded.topo, loaded.channel, report_sink=server.receive_report_bytes
        )
        for src, dst in loaded.host_pairs():
            result = net.inject_from_host(src, loaded.header_between(src, dst))
            assert result.status == "delivered"
        assert server.stats()["failed"] == 0

    def test_missing_config_rejected(self, tmp_path):
        original = build_linear(3)
        directory = str(tmp_path / "broken")
        written = export_network(original, directory)
        import os

        os.unlink(written[1])  # drop one switch config
        with pytest.raises(FileNotFoundError):
            load_network(directory)

    def test_missing_topology_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_network(str(tmp_path))

    def test_stray_config_rejected(self, tmp_path):
        original = build_linear(3)
        directory = str(tmp_path / "stray")
        export_network(original, directory)
        (tmp_path / "stray" / "ghost.cfg").write_text("hostname ghost\n")
        with pytest.raises(ValueError):
            load_network(directory)

    def test_hostname_mismatch_rejected(self, tmp_path):
        original = build_linear(3)
        directory = str(tmp_path / "mismatch")
        export_network(original, directory)
        cfg = tmp_path / "mismatch" / "S1.cfg"
        cfg.write_text(cfg.read_text().replace("hostname S1", "hostname S9"))
        with pytest.raises(ConfigError):
            load_network(directory)
