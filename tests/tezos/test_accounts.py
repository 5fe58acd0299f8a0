"""Tests for the Tezos account model."""

import pytest

from repro.common.errors import ChainError
from repro.common.rng import DeterministicRng
from repro.tezos.accounts import (
    TezosAccount,
    TezosAccountKind,
    TezosAccountRegistry,
    generate_address,
    is_implicit_address,
    is_originated_address,
)


@pytest.fixture
def registry():
    return TezosAccountRegistry(rng=DeterministicRng(1))


class TestAddresses:
    def test_generated_addresses_have_correct_prefix(self):
        rng = DeterministicRng(1)
        implicit = generate_address(rng, TezosAccountKind.IMPLICIT)
        originated = generate_address(rng, TezosAccountKind.ORIGINATED)
        assert is_implicit_address(implicit)
        assert is_originated_address(originated)

    def test_kind_and_address_must_agree(self):
        with pytest.raises(ChainError):
            TezosAccount(address="KT1abc", kind=TezosAccountKind.IMPLICIT)
        with pytest.raises(ChainError):
            TezosAccount(address="tz1abc", kind=TezosAccountKind.ORIGINATED)


class TestAccounts:
    def test_only_implicit_accounts_can_bake(self, registry):
        implicit = registry.create_implicit(balance=5.0)
        originated = registry.originate(implicit.address)
        assert implicit.can_bake
        assert not originated.can_bake

    def test_balance_operations(self, registry):
        account = registry.create_implicit(balance=10.0)
        account.credit(5.0)
        account.debit(12.0)
        assert account.balance_xtz == pytest.approx(3.0)
        with pytest.raises(ChainError):
            account.debit(100.0)
        with pytest.raises(ChainError):
            account.credit(-1.0)


class TestRegistry:
    def test_create_implicit_with_fixed_address(self, registry):
        account = registry.create_implicit(balance=1.0, address="tz1fixedaddress")
        assert registry.get("tz1fixedaddress") is account
        with pytest.raises(ChainError):
            registry.create_implicit(address="tz1fixedaddress")

    def test_originate_requires_implicit_manager(self, registry):
        manager = registry.create_implicit(balance=100.0)
        contract = registry.originate(manager.address, balance=20.0)
        assert contract.manager == manager.address
        assert contract.kind is TezosAccountKind.ORIGINATED
        with pytest.raises(ChainError):
            registry.originate(contract.address)

    def test_delegation_targets_must_be_implicit(self, registry):
        baker = registry.create_implicit(balance=20_000.0)
        delegator = registry.create_implicit(balance=100.0)
        contract = registry.originate(delegator.address)
        registry.delegate(delegator.address, baker.address)
        assert registry.get(delegator.address).delegate == baker.address
        with pytest.raises(ChainError):
            registry.delegate(delegator.address, contract.address)

    def test_staking_balance_includes_delegations(self, registry):
        baker = registry.create_implicit(balance=10_000.0)
        delegator = registry.create_implicit(balance=5_000.0)
        registry.delegate(delegator.address, baker.address)
        assert registry.staking_balances()[baker.address] == pytest.approx(15_000.0)

    def test_partitions_and_totals(self, registry):
        implicit = registry.create_implicit(balance=7.0)
        registry.originate(implicit.address, balance=3.0)
        kinds = [account.kind for account in registry.accounts()]
        assert kinds.count(TezosAccountKind.IMPLICIT) == 1
        assert kinds.count(TezosAccountKind.ORIGINATED) == 1
        assert sum(account.balance_xtz for account in registry.accounts()) == pytest.approx(10.0)

    def test_unknown_account(self, registry):
        with pytest.raises(ChainError):
            registry.get("tz1missing")
        assert registry.maybe_get("tz1missing") is None
