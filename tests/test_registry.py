"""Tests for the scenario registry and the two stress scenarios."""

import pytest

from repro.common.clock import timestamp_from_iso
from repro.common.columns import TxFrame
from repro.common.errors import AnalysisError
from repro.common.records import ChainId
from repro.scenarios import get_scenario, register_scenario, scenario_names
from repro.scenarios.registry import eidos_flood, spam_storm


class TestRegistry:
    def test_builtin_names_present(self):
        names = scenario_names()
        for expected in ("paper", "medium", "small", "eidos_flood", "spam_storm"):
            assert expected in names

    def test_get_scenario_passes_seed(self):
        first = get_scenario("small", seed=3)
        second = get_scenario("small", seed=9)
        assert first.eos.seed == 3 and second.eos.seed == 9

    def test_unknown_name_raises(self):
        with pytest.raises(AnalysisError):
            get_scenario("no-such-scenario")

    def test_unknown_name_error_lists_registered_names(self):
        """Never a bare KeyError: the message names every registered scenario."""
        with pytest.raises(AnalysisError) as excinfo:
            get_scenario("no-such-scenario")
        message = str(excinfo.value)
        for name in scenario_names():
            assert name in message

    def test_unknown_name_error_suggests_close_match(self):
        with pytest.raises(AnalysisError) as excinfo:
            get_scenario("smal")
        assert "did you mean 'small'" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AnalysisError):
            register_scenario("small", lambda seed=7: get_scenario("small", seed))

    def test_overwrite_allowed_when_requested(self):
        factory = lambda seed=7: get_scenario("small", seed)
        register_scenario("tmp-overwrite", factory)
        register_scenario("tmp-overwrite", factory, overwrite=True)
        assert "tmp-overwrite" in scenario_names()


class TestEidosFlood:
    def test_multiplier_is_ten_times_the_paper_default(self):
        scenario = eidos_flood()
        assert scenario.eos.eidos_traffic_multiplier == pytest.approx(120.0)
        assert scenario.eos.eidos_share >= 0.95

    def test_window_straddles_launch(self):
        eos = eidos_flood().eos
        assert eos.start_timestamp < eos.eidos_launch_timestamp < eos.end_timestamp

    def test_flood_dominates_generated_traffic(self):
        from repro.eos.workload import EosWorkloadConfig, EosWorkloadGenerator
        from repro.analysis.airdrop import AirdropAccumulator

        config = eidos_flood(seed=5).eos
        # Shrink the per-day volume so the test stays fast while keeping the
        # 120x multiplier shape.
        small = EosWorkloadConfig(
            start_date=config.start_date,
            end_date=config.end_date,
            transactions_per_day=30,
            eidos_traffic_multiplier=config.eidos_traffic_multiplier,
            eidos_share=config.eidos_share,
            blocks_per_day=6,
            user_account_count=40,
            seed=config.seed,
        )
        generator = EosWorkloadGenerator(small)
        frame = TxFrame()
        frame.extend(generator.stream_records())
        report = AirdropAccumulator().run(frame)
        assert report.dominates_post_launch_traffic
        assert report.traffic_multiplier > 20.0


class TestSpamStorm:
    def test_waves_overlap(self):
        waves = spam_storm().xrp.spam_waves
        assert len(waves) >= 3
        overlaps = 0
        for i, (start_a, end_a, _) in enumerate(waves):
            for start_b, end_b, _ in waves[i + 1:]:
                if (
                    timestamp_from_iso(start_a) < timestamp_from_iso(end_b)
                    and timestamp_from_iso(start_b) < timestamp_from_iso(end_a)
                ):
                    overlaps += 1
        assert overlaps >= 2

    def test_stacked_intensity_in_the_overlap(self):
        from repro.xrp.workload import XrpWorkloadGenerator, XrpWorkloadConfig

        config = spam_storm(seed=5).xrp
        generator = XrpWorkloadGenerator(
            XrpWorkloadConfig(
                start_date=config.start_date,
                end_date=config.end_date,
                transactions_per_day=80,
                ledgers_per_day=4,
                ordinary_account_count=30,
                spam_accounts_per_wave=10,
                spam_waves=config.spam_waves,
                seed=config.seed,
            )
        )
        # 2019-11-16 lies inside all three waves: 1 + 2 + 3 + 1 = 7x.
        assert generator._in_spam_wave(
            timestamp_from_iso("2019-11-16")
        ) == pytest.approx(1.0 + 2.0 + 3.0 + 1.0)
        # Outside every wave there is no multiplier.
        assert generator._in_spam_wave(timestamp_from_iso("2019-10-16")) is None

    def test_storm_shows_up_in_throughput(self):
        from repro.analysis.report import full_report
        from repro.xrp.workload import XrpWorkloadGenerator, XrpWorkloadConfig

        config = spam_storm(seed=5).xrp
        generator = XrpWorkloadGenerator(
            XrpWorkloadConfig(
                start_date=config.start_date,
                end_date=config.end_date,
                transactions_per_day=200,
                ledgers_per_day=6,
                ordinary_account_count=40,
                spam_accounts_per_wave=15,
                spam_waves=config.spam_waves,
                seed=config.seed,
            )
        )
        frame = TxFrame()
        frame.extend(generator.stream_records())
        throughput = full_report(frame).chains[ChainId.XRP]["throughput_series"]
        payments = throughput.series_for("Payment")
        peak_index = max(range(len(payments)), key=payments.__getitem__)
        peak_time = throughput.bin_start(peak_index)
        in_wave = any(
            timestamp_from_iso(start) <= peak_time < timestamp_from_iso(end)
            for start, end, _ in config.spam_waves
        )
        assert in_wave
