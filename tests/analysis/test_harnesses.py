"""Unit tests for the Section 6 experiment harnesses."""

import pytest

from repro.analysis import (
    build_and_measure,
    distribution_cdf,
    measure_fnr,
    measure_update_times,
    measure_verification_time,
    path_count_distribution,
    reports_from_table,
    run_localization_campaign,
    simulate_deviation,
    sweep_fnr_over_bits,
)
from repro.analysis.fnr import FnrResult
from repro.netmodel.rules import DROP_PORT
from repro.topologies import (
    build_fattree,
    build_internet2,
    build_linear,
    internet2_lpm_ruleset,
)


@pytest.fixture(scope="module")
def fattree_row():
    return build_and_measure(build_fattree(4), "FT(k=4)")


class TestTable2Harness:
    def test_row_shape(self, fattree_row):
        setup, pairs, paths, avg, secs = fattree_row.as_tuple()
        assert setup == "FT(k=4)"
        assert pairs > 0 and paths >= pairs
        assert 1.0 <= avg <= 8.0
        assert secs >= 0

    def test_distribution_sums_to_pairs(self, fattree_row):
        dist = path_count_distribution(fattree_row.table)
        assert sum(dist.values()) == fattree_row.stats.num_pairs

    def test_cdf_monotone_and_complete(self, fattree_row):
        cdf = distribution_cdf(path_count_distribution(fattree_row.table))
        fracs = [f for _, f in cdf]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == pytest.approx(1.0)

    def test_cdf_of_empty_distribution(self):
        assert distribution_cdf({}) == []


class TestFnrHarness:
    def test_result_math(self):
        result = FnrResult(bits=16, trials=100, arrived=50, missed=5)
        assert result.absolute_fnr == pytest.approx(0.05)
        assert result.relative_fnr == pytest.approx(0.1)

    def test_zero_division_guards(self):
        result = FnrResult(bits=16, trials=0, arrived=0, missed=0)
        assert result.absolute_fnr == 0.0
        assert result.relative_fnr == 0.0

    def test_fnr_decreases_with_bits(self, fattree_row):
        results = sweep_fnr_over_bits(
            fattree_row.builder, fattree_row.table, bit_widths=(8, 32), trials=400
        )
        assert results[0].absolute_fnr >= results[1].absolute_fnr
        assert results[0].relative_fnr >= results[0].absolute_fnr

    def test_wide_tags_eliminate_false_negatives(self, fattree_row):
        result = measure_fnr(fattree_row.builder, fattree_row.table, 64, 400)
        assert result.missed == 0

    def test_deviation_to_drop_port_ends_path(self, fattree_row):
        builder, table = fattree_row.builder, fattree_row.table
        inport, outport, entry = next(
            (i, o, e) for i, o, e in table.all_entries() if o.port != DROP_PORT
        )
        header = builder.hs.sample_header(entry.headers)
        real = simulate_deviation(builder, entry.hops, header, 0, DROP_PORT)
        assert len(real) == 1
        assert real[0].out_port == DROP_PORT

    def test_invalid_trials_rejected(self, fattree_row):
        with pytest.raises(ValueError):
            measure_fnr(fattree_row.builder, fattree_row.table, 16, 0)

    def test_str(self):
        assert "m=16" in str(FnrResult(bits=16, trials=10, arrived=5, missed=1))


class TestLocalizationCampaign:
    def test_campaign_runs_and_recovers(self):
        result = run_localization_campaign(build_fattree(4), trials=6, seed=2)
        assert result.faults_exercised == 6
        assert result.failed_verifications > 0
        assert result.localization_probability > 0.9
        assert result.blame_accuracy > 0.9

    def test_strawman_campaign(self):
        result = run_localization_campaign(
            build_fattree(4), trials=6, seed=2, use_strawman=True
        )
        # The strawman reconstructs no paths; recovery stays at zero.
        assert result.recovered_paths == 0

    def test_pair_limit_respected(self):
        result = run_localization_campaign(
            build_fattree(4), trials=2, seed=2, pair_limit=10
        )
        assert result.failed_verifications <= 2 * 10

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            run_localization_campaign(build_fattree(4), trials=0)

    def test_str(self):
        result = run_localization_campaign(build_fattree(4), trials=1, seed=0)
        assert "failed verifs" in str(result)


class TestTimingHarnesses:
    def test_verification_timing(self, fattree_row):
        timing = measure_verification_time(
            fattree_row.builder,
            fattree_row.table,
            "FT(k=4)",
            repeats=5,
            report_limit=50,
        )
        assert timing.reports == 50
        assert timing.mean_us > 0
        assert timing.median_us > 0
        assert timing.throughput_per_s > 0
        assert "FT(k=4)" in str(timing)

    def test_reports_from_table_all_verify(self, fattree_row):
        from repro.core.verifier import Verifier

        reports = reports_from_table(fattree_row.builder, fattree_row.table)
        verifier = Verifier(fattree_row.table, fattree_row.builder.hs)
        assert all(verifier.verify(r).passed for r in reports)

    def test_verification_timing_rejects_bad_repeats(self, fattree_row):
        with pytest.raises(ValueError):
            measure_verification_time(
                fattree_row.builder, fattree_row.table, "x", repeats=0
            )

    def test_update_timing_on_internet2(self):
        scenario = build_internet2(prefixes_per_pop=1, install_routes=False)
        ruleset = internet2_lpm_ruleset(scenario)
        timing, inc = measure_update_times(scenario, ruleset, "NEWY")
        assert len(timing.times_ms) == len(ruleset["NEWY"])
        assert timing.mean_ms > 0
        assert 0.0 <= timing.fraction_under(10.0) <= 1.0
        # The incrementally built table matches a full rebuild.
        from repro.core.pathtable import PathTableBuilder

        sig_inc = {
            (i, o, e.hops): e.headers for i, o, e in inc.table.all_entries()
        }
        rebuilt = PathTableBuilder(
            scenario.topo, inc.hs, provider=inc.provider
        ).build()
        sig_re = {(i, o, e.hops): e.headers for i, o, e in rebuilt.all_entries()}
        assert sig_inc == sig_re

    def test_update_timing_unknown_switch(self):
        scenario = build_internet2(prefixes_per_pop=1, install_routes=False)
        with pytest.raises(KeyError):
            measure_update_times(scenario, {}, "NOPE")


class TestMultiFaultCampaign:
    def test_basic_run(self):
        from repro.analysis import run_multi_fault_campaign
        from repro.topologies import build_fattree

        result = run_multi_fault_campaign(
            build_fattree(4), num_faults=2, trials=2, seed=3
        )
        assert result.num_faults == 2
        assert result.failed_verifications >= 0
        assert 0.0 <= result.localization_probability <= 1.0
        assert 0.0 <= result.blame_hit_rate <= 1.0
        assert "2 faults" in str(result)

    def test_rejects_bad_params(self):
        from repro.analysis import run_multi_fault_campaign
        from repro.topologies import build_fattree

        with pytest.raises(ValueError):
            run_multi_fault_campaign(build_fattree(4), num_faults=0)
        with pytest.raises(ValueError):
            run_multi_fault_campaign(build_fattree(4), num_faults=1, trials=0)


class TestFaultFuzz:
    def test_campaign_structure(self):
        from repro.analysis import run_fault_fuzz
        from repro.analysis.fuzz import FAULT_KINDS
        from repro.topologies import build_linear

        report = run_fault_fuzz(lambda: build_linear(3), trials_per_class=2, seed=1)
        assert set(report.per_class) == set(FAULT_KINDS)
        for stats in report.per_class.values():
            assert stats.trials == 2
            assert 0 <= stats.exercised <= 2
            assert stats.detected <= stats.exercised
            assert "exercised" in str(stats)
        assert len(report.rows()) == len(FAULT_KINDS)

    def test_kill_switch_is_blind_spot(self):
        from repro.analysis import run_fault_fuzz
        from repro.topologies import build_linear

        report = run_fault_fuzz(lambda: build_linear(3), trials_per_class=2, seed=1)
        dead = report.per_class["kill-switch"]
        assert dead.detected == 0
        assert dead.silent_losses > 0

    def test_rejects_bad_trials(self):
        from repro.analysis import run_fault_fuzz
        from repro.topologies import build_linear

        with pytest.raises(ValueError):
            run_fault_fuzz(lambda: build_linear(3), trials_per_class=0)
