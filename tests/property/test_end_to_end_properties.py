"""Property-based end-to-end invariants of the whole system (hypothesis).

These are the load-bearing guarantees of the paper, stated as properties
over randomly generated networks and faults:

1. **Soundness / zero false positives** (Section 6.3): on a healthy network
   every delivered packet's tag report verifies.
2. **Fault visibility**: a mis-forwarding on a used path either changes the
   delivery outcome or the tag — the verification fails unless the fault is
   a tag-collision false negative (checked explicitly with wide tags, where
   collisions are practically impossible at these path lengths).
3. **Blame soundness**: when PathInfer blames switches for a single
   injected mis-forwarding, the set includes the faulty switch.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.bloom import BloomTagScheme
from repro.core.localization import PathInferLocalizer
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork, random_misforward_fault
from repro.topologies import build_random


def build_rig(seed, scheme=None):
    scenario = build_random(
        num_switches=5 + seed % 3, extra_links=2 + seed % 3, hosts=4,
        seed=seed,
    )
    server = VeriDPServer(
        scenario.topo, scenario.channel, scheme=scheme, localize_failures=False
    )
    net = DataPlaneNetwork(
        scenario.topo,
        scenario.channel,
        scheme=scheme or server.scheme,
        report_sink=server.receive_report_bytes,
    )
    return scenario, server, net


class TestSoundness:
    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_healthy_network_never_alarms(self, seed):
        scenario, server, net = build_rig(seed)
        for src, dst in scenario.host_pairs():
            for dst_port in (22, 80):
                net.inject_from_host(
                    src, scenario.header_between(src, dst, dst_port=dst_port)
                )
        assert server.stats()["failed"] == 0

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_wide_tags_catch_every_exercised_misforward(self, seed):
        """With 64-bit tags, collisions are ~impossible at these path
        lengths: any fault that alters an exercised path must alarm."""
        scheme = BloomTagScheme(bits=64)
        scenario, server, net = build_rig(seed, scheme=scheme)
        rng = random.Random(seed)

        baseline = {}
        for src, dst in scenario.host_pairs():
            result = net.inject_from_host(src, scenario.header_between(src, dst))
            baseline[(src, dst)] = tuple(result.hops)
        server.drain_incidents()
        fault = random_misforward_fault(net, rng)
        if fault is None:
            return
        changed_any = False
        for src, dst in scenario.host_pairs():
            result = net.inject_from_host(src, scenario.header_between(src, dst))
            if tuple(result.hops) != baseline[(src, dst)] and result.reports:
                changed_any = True
        if changed_any:
            assert server.drain_incidents(), (
                f"seed {seed}: path changed but no incident "
                f"(fault {fault.describe()})"
            )


class TestBlameSoundness:
    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_blamed_set_contains_faulty_switch(self, seed):
        scenario, server, net = build_rig(seed)
        localizer = PathInferLocalizer(server.builder, server.scheme, scenario.topo)
        rng = random.Random(seed + 1000)
        fault = random_misforward_fault(net, rng)
        if fault is None:
            return
        for src, dst in scenario.host_pairs():
            delivery = net.inject_from_host(src, scenario.header_between(src, dst))
            for report in delivery.reports:
                verification = server.verifier.verify(report)
                if verification.passed:
                    continue
                result = localizer.localize(report)
                if result.recovered:
                    assert fault.switch_id in result.blamed_switches(), (
                        f"seed {seed}: fault at {fault.switch_id}, "
                        f"blamed {result.blamed_switches()}"
                    )
