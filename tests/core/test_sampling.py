"""Unit tests for flow sampling (Section 4.5)."""

import pytest

from repro.core.sampling import (
    AlwaysSampler,
    FlowSampler,
    NeverSampler,
    sampling_interval_for,
    worst_case_detection_latency,
)


class TestIntervalMath:
    def test_sampling_interval_for(self):
        assert sampling_interval_for(tau=1.0, max_inter_arrival=0.3) == pytest.approx(0.7)

    def test_unachievable_latency_raises(self):
        with pytest.raises(ValueError):
            sampling_interval_for(tau=0.3, max_inter_arrival=0.5)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            sampling_interval_for(tau=0, max_inter_arrival=0.1)

    def test_negative_inter_arrival(self):
        with pytest.raises(ValueError):
            sampling_interval_for(tau=1.0, max_inter_arrival=-1)

    def test_worst_case_latency_is_sum(self):
        assert worst_case_detection_latency(0.7, 0.3) == pytest.approx(1.0)

    def test_latency_bound_round_trip(self):
        """T_s chosen via the Section 4.5 rule meets the latency budget."""
        tau, t_a = 2.0, 0.5
        t_s = sampling_interval_for(tau, t_a)
        assert worst_case_detection_latency(t_s, t_a) <= tau + 1e-12

    def test_worst_case_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            worst_case_detection_latency(0, 0.1)
        with pytest.raises(ValueError):
            worst_case_detection_latency(1.0, -0.1)


class TestFlowSampler:
    def test_first_packet_always_sampled(self):
        sampler = FlowSampler(default_interval=1.0)
        assert sampler.should_sample("f1", now=0.0)

    def test_within_interval_not_sampled(self):
        sampler = FlowSampler(default_interval=1.0)
        sampler.should_sample("f1", now=0.0)
        assert not sampler.should_sample("f1", now=0.5)
        assert not sampler.should_sample("f1", now=1.0)  # strict inequality

    def test_after_interval_sampled(self):
        sampler = FlowSampler(default_interval=1.0)
        sampler.should_sample("f1", now=0.0)
        assert sampler.should_sample("f1", now=1.01)

    def test_flows_are_independent(self):
        sampler = FlowSampler(default_interval=1.0)
        sampler.should_sample("f1", now=0.0)
        assert sampler.should_sample("f2", now=0.5)

    def test_sampling_rate(self):
        sampler = FlowSampler(default_interval=10.0)
        sampler.should_sample("f", now=0.0)  # sampled
        sampler.should_sample("f", now=1.0)  # not
        sampler.should_sample("f", now=2.0)  # not
        sampler.should_sample("f", now=11.0)  # sampled
        assert sampler.sampling_rate == pytest.approx(0.5)
        assert sampler.seen_count == 4
        assert sampler.sampled_count == 2

    def test_empty_rate_is_zero(self):
        assert FlowSampler().sampling_rate == 0.0

    def test_capacity_evicts_least_recently_hit(self):
        sampler = FlowSampler(default_interval=100.0, capacity=2)
        sampler.should_sample("a", now=0.0)
        sampler.should_sample("b", now=1.0)
        sampler.should_sample("a", now=2.0)  # refresh a's hit time
        sampler.should_sample("c", now=3.0)  # evicts b
        assert len(sampler._state) == 2
        # b returns as a "new" flow -> sampled again (over-sampling, never under)
        assert sampler.should_sample("b", now=4.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FlowSampler(default_interval=0)
        with pytest.raises(ValueError):
            FlowSampler(capacity=0)


class TestTrivialSamplers:
    def test_always(self):
        sampler = AlwaysSampler()
        assert all(sampler.should_sample("f", now=t) for t in range(5))

    def test_never(self):
        sampler = NeverSampler()
        assert not any(sampler.should_sample("f", now=t) for t in range(5))
