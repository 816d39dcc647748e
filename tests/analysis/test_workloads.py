"""Tests for the traffic workload generators."""

import random

import pytest

from repro.analysis.workloads import (
    FlowSpec,
    cbr_arrivals,
    max_inter_arrival,
    merge_flows,
    onoff_arrivals,
    poisson_arrivals,
    scenario_workload,
)
from repro.core.sampling import sampling_interval_for
from repro.topologies import build_linear


class TestCbr:
    def test_periodic(self):
        times = cbr_arrivals(rate=10, duration=1.0)
        assert len(times) == 10
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.1) for g in gaps)

    def test_start_offset(self):
        times = cbr_arrivals(rate=4, duration=1.0, start=5.0)
        assert times[0] == pytest.approx(5.25)

    def test_max_gap_is_period(self):
        times = cbr_arrivals(rate=20, duration=2.0)
        assert max_inter_arrival(times) == pytest.approx(0.05)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            cbr_arrivals(0, 1.0)
        with pytest.raises(ValueError):
            cbr_arrivals(1.0, 0)


class TestPoisson:
    def test_mean_rate_approximate(self):
        rng = random.Random(1)
        times = poisson_arrivals(rate=100, duration=20.0, rng=rng)
        assert len(times) == pytest.approx(2000, rel=0.15)

    def test_within_duration(self):
        rng = random.Random(2)
        times = poisson_arrivals(rate=50, duration=3.0, rng=rng)
        assert all(0 < t <= 3.0 for t in times)

    def test_deterministic_per_seed(self):
        a = poisson_arrivals(10, 5.0, random.Random(3))
        b = poisson_arrivals(10, 5.0, random.Random(3))
        assert a == b


class TestOnOff:
    def test_bursts_and_silences(self):
        times = onoff_arrivals(rate=10, duration=4.0, on_s=1.0, off_s=1.0)
        # bursts in [0,1] and [2,3]; silence elsewhere
        assert all((t % 2.0) <= 1.0 + 1e-9 for t in times)

    def test_max_gap_spans_off_period(self):
        times = onoff_arrivals(rate=10, duration=4.0, on_s=1.0, off_s=1.0)
        assert max_inter_arrival(times) > 1.0  # the off gap dominates

    def test_zero_off_is_cbr_like(self):
        times = onoff_arrivals(rate=10, duration=2.0, on_s=1.0, off_s=0.0)
        assert max_inter_arrival(times) == pytest.approx(0.1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            onoff_arrivals(10, 1.0, on_s=0, off_s=1.0)


class TestFlowSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowSpec("a", "b", kind="warp")
        with pytest.raises(ValueError):
            FlowSpec("a", "b", rate=0)

    def test_defaults(self):
        spec = FlowSpec("H1", "H2")
        assert spec.kind == "cbr"
        assert spec.dst_port == 80


class TestMergeAndWorkload:
    def test_merge_sorted(self):
        from repro.netmodel.packet import Header

        specs = [FlowSpec("a", "b"), FlowSpec("c", "d")]
        headers = {("a", "b"): Header(dst_port=80), ("c", "d"): Header(dst_port=81)}
        events = merge_flows(
            [(specs[0], [0.3, 0.1]), (specs[1], [0.2])], headers
        )
        assert [e.time for e in events] == [0.1, 0.2, 0.3]

    def test_max_inter_arrival_trivial(self):
        assert max_inter_arrival([]) == 0.0
        assert max_inter_arrival([1.0]) == 0.0

    def test_scenario_workload_end_to_end(self):
        scenario = build_linear(3)
        specs = [
            FlowSpec("H1", "H3", kind="cbr", rate=20),
            FlowSpec("H3", "H1", kind="poisson", rate=20),
            FlowSpec("H2", "H3", kind="onoff", rate=20, on_s=0.5, off_s=0.5),
        ]
        events, gaps = scenario_workload(scenario, specs, duration=2.0, seed=1)
        assert events == sorted(events, key=lambda e: e.time)
        assert set(gaps) == {("H1", "H3"), ("H3", "H1"), ("H2", "H3")}
        # CBR's T_a is its period; on/off's spans the silence.
        assert gaps[("H1", "H3")] == pytest.approx(0.05)
        assert gaps[("H2", "H3")] > 0.5

    def test_workload_drives_sampling_rule(self):
        """The point of T_a: size the sampling interval per Section 4.5."""
        scenario = build_linear(3)
        specs = [FlowSpec("H1", "H3", kind="onoff", rate=10, on_s=0.5, off_s=0.4)]
        _, gaps = scenario_workload(scenario, specs, duration=3.0)
        tau = 2.0
        interval = sampling_interval_for(tau, gaps[("H1", "H3")])
        assert 0 < interval < tau

    def test_workload_replays_through_network(self):
        """Events inject cleanly and verify against VeriDP."""
        from repro.core import VeriDPServer
        from repro.dataplane import DataPlaneNetwork

        scenario = build_linear(3)
        server = VeriDPServer(scenario.topo, scenario.channel)
        net = DataPlaneNetwork(
            scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
        )
        events, _ = scenario_workload(
            scenario, [FlowSpec("H1", "H3", rate=20)], duration=1.0
        )
        for event in events:
            result = net.inject_from_host(event.src_host, event.header, now=event.time)
            assert result.status == "delivered"
        assert server.stats()["failed"] == 0
