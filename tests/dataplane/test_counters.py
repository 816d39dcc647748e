"""Tests for the per-port traffic counters."""

from repro.dataplane import DataPlaneNetwork
from repro.dataplane.switch import DataPlaneSwitch, PortCounters
from repro.netmodel.rules import DROP_PORT
from repro.topologies import build_linear


class TestSwitchCounters:
    def test_account_forwarded(self):
        switch = DataPlaneSwitch("S", ports={1, 2})
        switch.account(1, 2, 500)
        switch.account(1, 2, 500)
        assert switch.port_counters[1].rx_packets == 2
        assert switch.port_counters[1].rx_bytes == 1000
        assert switch.port_counters[2].tx_packets == 2
        assert switch.port_counters[2].tx_bytes == 1000
        assert switch.dropped_packets == 0

    def test_account_dropped(self):
        switch = DataPlaneSwitch("S", ports={1, 2})
        switch.account(1, DROP_PORT, 64)
        assert switch.port_counters[1].rx_packets == 1
        assert switch.dropped_packets == 1
        # No TX accounting for drops.
        assert switch.port_counters[2].tx_packets == 0

    def test_default_counters_zero(self):
        switch = DataPlaneSwitch("S", ports={1})
        counters = switch.port_counters[1]
        assert counters == PortCounters()


class TestNetworkCounters:
    def test_walk_updates_every_hop(self):
        scenario = build_linear(3)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        net.inject_from_host("H1", scenario.header_between("H1", "H3"), size=700)
        # S2's ingress from S1 (port 3) saw the packet.
        assert net.switch("S2").port_counters[3].rx_bytes == 700
        # S3 transmitted it out of its host port 1.
        assert net.switch("S3").port_counters[1].tx_bytes == 700

    def test_drop_counted_at_dropping_switch(self):
        scenario = build_linear(3)
        net = DataPlaneNetwork(scenario.topo, scenario.channel)
        bogus = scenario.header_between("H1", "H3").with_(dst_ip=0x01020304)
        net.inject_from_host("H1", bogus)
        assert net.switch("S1").dropped_packets == 1
