"""Tests for the EOS resource market and congestion mode."""

import pytest

from repro.eos.resources import EosResourceMarket


@pytest.fixture
def market():
    return EosResourceMarket(
        total_cpu_us_per_block=1_000.0,
        congestion_threshold=0.8,
        leniency_multiplier=10.0,
        base_cpu_price=0.001,
    )


class TestStaking:
    def test_stakes_accumulate(self, market):
        market.stake_cpu("alice", 50.0)
        market.stake_cpu("alice", 25.0)
        assert market.total_staked() == 75.0

    def test_negative_stake_rejected(self, market):
        with pytest.raises(ValueError):
            market.stake_cpu("alice", -1.0)

    def test_entitlement_proportional_to_stake(self, market):
        market.stake_cpu("alice", 75.0)
        market.stake_cpu("bob", 25.0)
        # Normal mode multiplies the staked share by the leniency factor.
        assert market.cpu_entitlement_us("alice") == pytest.approx(0.75 * 1_000.0 * 10.0)
        assert market.cpu_entitlement_us("bob") == pytest.approx(0.25 * 1_000.0 * 10.0)

    def test_no_stake_no_entitlement(self, market):
        assert market.cpu_entitlement_us("ghost") == 0.0


class TestCongestionMode:
    def test_congestion_triggers_on_high_utilisation(self, market):
        market.stake_cpu("alice", 100.0)
        assert market.charge("alice", 900.0)
        sample = market.end_block(timestamp=1.0)
        assert sample.congested
        assert market.congested

    def test_congestion_clears_when_load_drops(self, market):
        market.stake_cpu("alice", 100.0)
        market.charge("alice", 900.0)
        market.end_block(1.0)
        market.charge("alice", 10.0)
        sample = market.end_block(2.0)
        assert not sample.congested

    def test_congested_mode_limits_to_staked_share(self, market):
        market.stake_cpu("alice", 50.0)
        market.stake_cpu("bob", 50.0)
        market.charge("alice", 900.0)
        market.end_block(1.0)
        # Now congested: entitlement falls back to the bare staked share.
        assert market.cpu_entitlement_us("alice") == pytest.approx(500.0)
        assert market.can_execute("alice", 400.0)
        assert not market.can_execute("alice", 600.0)

    def test_charge_rejected_beyond_entitlement(self, market):
        market.stake_cpu("alice", 1.0)
        market.stake_cpu("bob", 99.0)
        # Alice's normal-mode entitlement is 1% * 1000 * 10 = 100 us.
        assert market.charge("alice", 90.0)
        assert not market.charge("alice", 50.0)

    def test_usage_resets_each_block(self, market):
        market.stake_cpu("alice", 100.0)
        market.charge("alice", 500.0)
        market.end_block(1.0)
        assert market.utilization() == 0.0
        assert market.charge("alice", 500.0)


class TestCpuPrice:
    def test_price_spikes_with_utilisation(self, market):
        market.stake_cpu("alice", 100.0)
        idle_price = market.cpu_price()
        market.charge("alice", 990.0)
        busy_price = market.cpu_price()
        assert busy_price > idle_price * 100

    def test_price_history_recorded(self, market):
        market.stake_cpu("alice", 100.0)
        market.charge("alice", 100.0)
        market.end_block(1.0)
        market.charge("alice", 950.0)
        market.end_block(2.0)
        history = market.history()
        assert len(history) == 2
        assert history[1].cpu_price > history[0].cpu_price


class TestValidation:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            EosResourceMarket(total_cpu_us_per_block=0.0)
        with pytest.raises(ValueError):
            EosResourceMarket(congestion_threshold=0.0)
        with pytest.raises(ValueError):
            EosResourceMarket(congestion_threshold=1.5)
