"""Tests for the calibrated EOS workload generator.

These are shape tests: the workload must reproduce the paper's qualitative
EOS findings (transfer dominance, the EIDOS explosion, the named top
applications, the wash-trading DEX pattern) at the reduced test scale.
"""

import pytest

from repro.common.records import ChainId, iter_transactions
from repro.eos.workload import (
    APPLICATION_CATEGORIES,
    CATEGORY_BETTING,
    CATEGORY_TOKENS,
    EosWorkloadConfig,
    EosWorkloadGenerator,
)


class TestConfigValidation:
    def test_defaults_cover_the_paper_window(self):
        config = EosWorkloadConfig()
        assert config.start_date == "2019-10-01"
        assert config.total_days == pytest.approx(92.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transactions_per_day": 0},
            {"blocks_per_day": 0},
            {"eidos_share": 1.5},
            {"start_date": "2019-12-01", "end_date": "2019-11-01"},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            EosWorkloadConfig(**kwargs)


class TestGeneratedTraffic:
    def test_blocks_cover_the_window_in_order(self, eos_blocks, scenario):
        assert eos_blocks
        timestamps = [block.timestamp for block in eos_blocks]
        assert timestamps == sorted(timestamps)
        assert timestamps[0] >= scenario.eos.start_timestamp
        assert timestamps[-1] < scenario.eos.end_timestamp
        heights = [block.height for block in eos_blocks]
        assert heights == list(range(heights[0], heights[0] + len(heights)))

    def test_all_records_are_eos(self, eos_records):
        assert all(record.chain is ChainId.EOS for record in eos_records)

    def test_transfer_actions_dominate_post_launch(self, eos_records, scenario):
        launch = scenario.eos.eidos_launch_timestamp
        post = [record for record in eos_records if record.timestamp >= launch]
        transfers = sum(1 for record in post if record.type == "transfer")
        assert transfers / len(post) > 0.85

    def test_eidos_launch_multiplies_traffic(self, eos_blocks, scenario):
        launch = scenario.eos.eidos_launch_timestamp
        pre = [block.action_count for block in eos_blocks if block.timestamp < launch]
        post = [block.action_count for block in eos_blocks if block.timestamp >= launch]
        assert pre and post
        assert (sum(post) / len(post)) > 5 * (sum(pre) / len(pre))

    def test_known_applications_receive_traffic(self, eos_records):
        receivers = {record.receiver for record in eos_records}
        for application in ("eosio.token", "betdicetasks", "whaleextrust", "pornhashbaby", "eossanguoone"):
            assert application in receivers

    def test_betting_sender_is_betdicegroup(self, eos_records):
        betting = [
            record
            for record in eos_records
            if record.receiver == "betdicetasks" and record.type != "transfer"
        ]
        assert betting
        assert all(record.sender == "betdicegroup" for record in betting)

    def test_wash_traders_dominate_dex_trades(self, eos_generator, eos_records):
        dex = eos_generator.chain.contracts.get("whaleextrust")
        assert dex.trades
        assert dex.self_trade_fraction() > 0.5

    def test_eidos_claims_recorded_by_contract(self, eos_generator):
        assert eos_generator.chain.contracts.get("eidosonecoin").claims > 0

    def test_congestion_mode_reached_after_launch(self, eos_generator, scenario):
        launch = scenario.eos.eidos_launch_timestamp
        history = eos_generator.chain.resources.history()
        post = [sample for sample in history if sample.timestamp >= launch]
        pre = [sample for sample in history if sample.timestamp < launch]
        assert any(sample.congested for sample in post)
        assert not any(sample.congested for sample in pre)

    def test_category_labels_cover_named_applications(self):
        assert APPLICATION_CATEGORIES["betdicetasks"] == CATEGORY_BETTING
        assert APPLICATION_CATEGORIES["eidosonecoin"] == CATEGORY_TOKENS

    def test_determinism(self):
        config = EosWorkloadConfig(
            start_date="2019-10-30",
            end_date="2019-11-02",
            transactions_per_day=200,
            blocks_per_day=4,
            user_account_count=20,
            seed=99,
        )
        first = EosWorkloadGenerator(config).generate()
        second = EosWorkloadGenerator(config).generate()
        assert [block.action_count for block in first] == [block.action_count for block in second]
        first_records = [record.type for record in iter_transactions(first)]
        second_records = [record.type for record in iter_transactions(second)]
        assert first_records == second_records

    def test_user_names_are_valid_and_unique(self):
        generator = EosWorkloadGenerator(
            EosWorkloadConfig(
                start_date="2019-10-30",
                end_date="2019-10-31",
                transactions_per_day=10,
                blocks_per_day=2,
                user_account_count=150,
                seed=1,
            )
        )
        assert len(set(generator._users)) == 150
