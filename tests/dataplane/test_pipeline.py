"""Unit tests for the VeriDP pipeline (Algorithm 1)."""

import pytest

from repro.core.reports import PortCodec
from repro.core.sampling import NeverSampler
from repro.dataplane.pipeline import VeriDPPipeline
from repro.netmodel.hops import Hop
from repro.netmodel.packet import Header, Packet
from repro.netmodel.rules import DROP_PORT
from repro.netmodel.topology import PortRef
from repro.topologies import build_linear


@pytest.fixture
def env():
    scenario = build_linear(3)
    codec = PortCodec(sorted(scenario.topo.switches))
    pipeline = VeriDPPipeline(scenario.topo, codec)
    return scenario.topo, codec, pipeline


def packet():
    return Packet(Header(src_ip=1, dst_ip=2, dst_port=80))


class TestEntryBehaviour:
    def test_entry_initialises_tag_ttl_inport(self, env):
        topo, codec, pipeline = env
        p = packet()
        result = pipeline.process("S1", 1, 2, p)
        assert result.sampled_here
        assert p.marker
        assert p.ttl == pipeline.max_path_length - 1  # already decremented once
        assert p.inport_id == codec.encode(PortRef("S1", 1))
        assert p.tag == pipeline.scheme.hop_filter(Hop(1, "S1", 2))

    def test_internal_ingress_does_not_reinitialise(self, env):
        topo, codec, pipeline = env
        p = packet()
        pipeline.process("S1", 1, 2, p)
        tag_before = p.tag
        result = pipeline.process("S2", 3, 2, p)  # S2 port 3 is internal
        assert not result.sampled_here
        assert p.tag == tag_before | pipeline.scheme.hop_filter(Hop(3, "S2", 2))

    def test_unsampled_packet_untouched(self, env):
        topo, codec, pipeline = env
        pipeline_no_sample = VeriDPPipeline(
            topo, codec, sampler_factory=lambda s: NeverSampler()
        )
        p = packet()
        result = pipeline_no_sample.process("S1", 1, 2, p)
        assert not result.sampled_here
        assert not result.tagged
        assert result.report is None
        assert p.tag == 0 and p.ttl is None


class TestReporting:
    def test_report_at_edge_egress(self, env):
        topo, codec, pipeline = env
        p = packet()
        pipeline.process("S1", 1, 2, p)
        pipeline.process("S2", 3, 2, p)
        result = pipeline.process("S3", 3, 1, p)  # S3 port 1 hosts H3
        assert result.report is not None
        assert result.report.inport == PortRef("S1", 1)
        assert result.report.outport == PortRef("S3", 1)
        assert result.report.tag == pipeline.scheme.tag_of_path(
            [Hop(1, "S1", 2), Hop(3, "S2", 2), Hop(3, "S3", 1)]
        )
        assert not result.report.ttl_expired
        assert not p.marker  # in-band state popped on exit

    def test_report_on_drop(self, env):
        topo, codec, pipeline = env
        p = packet()
        result = pipeline.process("S1", 1, DROP_PORT, p)
        assert result.report is not None
        assert result.report.outport == PortRef("S1", DROP_PORT)
        assert not result.report.ttl_expired

    def test_report_on_ttl_expiry(self, env):
        topo, codec, pipeline = env
        pipeline_short = VeriDPPipeline(topo, codec, max_path_length=2)
        p = packet()
        pipeline_short.process("S1", 1, 2, p)
        result = pipeline_short.process("S2", 3, 2, p)  # ttl hits 0 mid-network
        assert result.report is not None
        assert result.report.ttl_expired
        assert not p.marker  # tracking stops after the loop report

    def test_no_report_mid_path(self, env):
        topo, codec, pipeline = env
        p = packet()
        assert pipeline.process("S1", 1, 2, p).report is None

    def test_header_carried_verbatim(self, env):
        topo, codec, pipeline = env
        p = packet()
        result = pipeline.process("S1", 1, DROP_PORT, p)
        assert result.report.header == p.header


class TestSamplerWiring:
    def test_sampler_per_switch(self, env):
        topo, codec, _ = env
        created = []

        def factory(switch_id):
            created.append(switch_id)
            from repro.core.sampling import AlwaysSampler

            return AlwaysSampler()

        pipeline = VeriDPPipeline(topo, codec, sampler_factory=factory)
        pipeline.process("S1", 1, 2, packet())
        pipeline.process("S3", 1, 2, packet())
        pipeline.process("S1", 1, 2, packet())
        assert created == ["S1", "S3"]

    def test_interval_sampler_suppresses_within_interval(self, env):
        topo, codec, _ = env
        from repro.core.sampling import FlowSampler

        pipeline = VeriDPPipeline(
            topo, codec, sampler_factory=lambda s: FlowSampler(default_interval=5.0)
        )
        first = packet()
        pipeline.process("S1", 1, 2, first, now=0.0)
        second = packet()  # same flow key
        result = pipeline.process("S1", 1, 2, second, now=1.0)
        assert first.marker is True
        assert not result.sampled_here
        assert second.tag == 0


class TestForceSample:
    def test_probe_bypasses_sampler(self, env):
        """A pre-marked probe is tagged even when the sampler says no."""
        topo, codec, _ = env
        from repro.core.sampling import NeverSampler
        from repro.dataplane.pipeline import VeriDPPipeline

        pipeline = VeriDPPipeline(
            topo, codec, sampler_factory=lambda s: NeverSampler()
        )
        p = packet()
        result = pipeline.process("S1", 1, 2, p, force_sample=True)
        assert result.sampled_here
        assert p.marker

    def test_force_sample_does_not_touch_sampler_state(self, env):
        topo, codec, _ = env
        from repro.core.sampling import FlowSampler
        from repro.dataplane.pipeline import VeriDPPipeline

        pipeline = VeriDPPipeline(
            topo, codec, sampler_factory=lambda s: FlowSampler(default_interval=5.0)
        )
        probe = packet()
        pipeline.process("S1", 1, 2, probe, now=0.0, force_sample=True)
        sampler = pipeline.sampler_for("S1")
        assert sampler.seen_count == 0  # probe invisible to the sampler
        # Ordinary traffic is then sampled normally (first packet of flow).
        regular = packet()
        result = pipeline.process("S1", 1, 2, regular, now=1.0)
        assert result.sampled_here

    def test_network_plumbs_force_sample(self):
        from repro.core.sampling import NeverSampler
        from repro.dataplane import DataPlaneNetwork
        from repro.topologies import build_linear

        scenario = build_linear(3)
        net = DataPlaneNetwork(
            scenario.topo,
            scenario.channel,
            sampler_factory=lambda s: NeverSampler(),
        )
        silent = net.inject_from_host("H1", scenario.header_between("H1", "H3"))
        assert silent.reports == []
        probed = net.inject_from_host(
            "H1", scenario.header_between("H1", "H3"), force_sample=True
        )
        assert len(probed.reports) == 1
