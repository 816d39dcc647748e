"""Unit tests for the hardware pipeline latency model (Table 4 substitute)."""

import pytest

from repro.dataplane.latency import (
    HardwarePipelineModel,
    PAPER_NATIVE_POINTS,
    PAPER_PACKET_SIZES,
)


@pytest.fixture
def model():
    return HardwarePipelineModel()


class TestCalibration:
    def test_native_matches_paper_at_calibration_points(self, model):
        for size, expected in PAPER_NATIVE_POINTS:
            assert model.native_delay(size) == pytest.approx(expected)

    def test_sampling_delay_matches_paper(self, model):
        # Paper Table 4: ~0.14-0.15 us across all sizes.
        assert model.sampling_delay(512) == pytest.approx(0.152, abs=0.01)

    def test_tagging_delay_matches_paper(self, model):
        # Paper Table 4: ~0.26-0.27 us across all sizes.
        assert model.tagging_delay(512) == pytest.approx(0.272, abs=0.01)


class TestShapeClaims:
    """The Table 4 structural claims the reproduction must preserve."""

    def test_veridp_delays_are_size_independent(self, model):
        sampling = {model.sampling_delay(s) for s in PAPER_PACKET_SIZES}
        tagging = {model.tagging_delay(s) for s in PAPER_PACKET_SIZES}
        assert len(sampling) == 1
        assert len(tagging) == 1

    def test_native_delay_monotone_in_size(self, model):
        delays = [model.native_delay(s) for s in PAPER_PACKET_SIZES]
        assert all(a < b for a, b in zip(delays, delays[1:]))

    def test_overheads_shrink_with_packet_size(self, model):
        sampling = [model.sampling_overhead(s) for s in PAPER_PACKET_SIZES]
        tagging = [model.tagging_overhead(s) for s in PAPER_PACKET_SIZES]
        assert all(a > b for a, b in zip(sampling, sampling[1:]))
        assert all(a > b for a, b in zip(tagging, tagging[1:]))

    def test_overhead_at_512B_matches_paper_magnitude(self, model):
        # Paper: 0.74% sampling, 1.37% tagging at 512 B.
        assert model.sampling_overhead(512) == pytest.approx(0.0074, abs=0.002)
        assert model.tagging_overhead(512) == pytest.approx(0.0137, abs=0.003)

    def test_tagging_roughly_twice_sampling(self, model):
        ratio = model.tagging_delay(512) / model.sampling_delay(512)
        assert 1.5 <= ratio <= 2.2


class TestComposition:
    def test_table4_rows_structure(self, model):
        rows = model.table4_rows()
        assert set(rows) == {
            "native_us",
            "sampling_us",
            "sampling_overhead_pct",
            "tagging_us",
            "tagging_overhead_pct",
        }
        assert all(len(col) == len(PAPER_PACKET_SIZES) for col in rows.values())


class TestInterpolationAndValidation:
    def test_interpolates_between_points(self, model):
        mid = model.native_delay(192)  # between 128 and 256
        assert model.native_delay(128) < mid < model.native_delay(256)

    def test_extrapolates_outside_range(self, model):
        assert model.native_delay(64) < model.native_delay(128)
        assert model.native_delay(2000) > model.native_delay(1500)

    def test_rejects_nonpositive_size(self, model):
        for method in (
            model.native_delay,
            model.sampling_delay,
            model.tagging_delay,
        ):
            with pytest.raises(ValueError):
                method(0)

    def test_rejects_bad_calibration(self):
        with pytest.raises(ValueError):
            HardwarePipelineModel(native_points=[(128, 4.0)])
        with pytest.raises(ValueError):
            HardwarePipelineModel(sampling_cycles=0)
        with pytest.raises(ValueError):
            HardwarePipelineModel(native_points=[(0, 1.0), (10, 2.0)])

    def test_custom_cycle_costs(self):
        model = HardwarePipelineModel(sampling_cycles=10, tagging_cycles=20)
        assert model.sampling_delay(100) == pytest.approx(0.08)
        assert model.tagging_delay(100) == pytest.approx(0.16)
