"""Tests for LPoS baking rights and the 32-endorsement rule."""

import pytest

from repro.common.errors import ChainError
from repro.common.rng import DeterministicRng
from repro.tezos.accounts import TezosAccountRegistry
from repro.tezos.baking import BakerSet, ENDORSEMENTS_PER_BLOCK, ROLL_SIZE_XTZ

from tests.support import eligible_bakers


@pytest.fixture
def registry():
    return TezosAccountRegistry(rng=DeterministicRng(2))


def make_baker_set(registry, balances):
    addresses = []
    for balance in balances:
        account = registry.create_implicit(balance=balance)
        addresses.append(account.address)
    return BakerSet(registry, rng=DeterministicRng(3)), addresses


class TestEligibility:
    def test_roll_threshold(self, registry):
        baker_set, addresses = make_baker_set(registry, [ROLL_SIZE_XTZ, ROLL_SIZE_XTZ - 1.0])
        eligible = eligible_bakers(registry)
        assert addresses[0] in eligible
        assert addresses[1] not in eligible

    def test_delegation_makes_account_eligible(self, registry):
        baker_set, addresses = make_baker_set(registry, [6_000.0, 5_000.0])
        assert eligible_bakers(registry) == []
        registry.delegate(addresses[1], addresses[0])
        assert addresses[0] in eligible_bakers(registry)

    def test_rolls_counted_in_units_of_10000(self, registry):
        baker_set, addresses = make_baker_set(registry, [35_000.0])
        assert baker_set._weights() == {addresses[0]: 3.0}

    def test_only_implicit_accounts_are_considered(self, registry):
        baker_set, addresses = make_baker_set(registry, [ROLL_SIZE_XTZ])
        registry.originate(addresses[0], balance=50_000.0)
        assert eligible_bakers(registry) == [addresses[0]]


class TestRights:
    def test_baking_right_selects_an_eligible_baker(self, registry):
        baker_set, addresses = make_baker_set(registry, [ROLL_SIZE_XTZ * 3, ROLL_SIZE_XTZ])
        right = baker_set.baking_right(level=10)
        assert right.baker in addresses
        assert right.level == 10

    def test_baking_right_requires_an_eligible_baker(self, registry):
        baker_set, _ = make_baker_set(registry, [1.0])
        with pytest.raises(ChainError):
            baker_set.baking_right(level=1)

    def test_endorsement_rights_fill_32_slots(self, registry):
        baker_set, addresses = make_baker_set(registry, [ROLL_SIZE_XTZ * 5, ROLL_SIZE_XTZ * 5])
        endorsers = baker_set.endorsement_rights(level=1)
        assert len(endorsers) == ENDORSEMENTS_PER_BLOCK
        assert set(endorsers) <= set(addresses)

    def test_larger_stake_receives_more_slots(self, registry):
        baker_set, addresses = make_baker_set(
            registry, [ROLL_SIZE_XTZ * 50, ROLL_SIZE_XTZ]
        )
        endorsers = baker_set.endorsement_rights(level=1, slots=500)
        large = endorsers.count(addresses[0])
        small = endorsers.count(addresses[1])
        assert large > small * 5

    def test_validate_endorsements(self, registry):
        baker_set, _ = make_baker_set(registry, [ROLL_SIZE_XTZ])
        assert baker_set.validate_endorsements(["tz1x"] * 32)
        assert not baker_set.validate_endorsements(["tz1x"] * 31)
