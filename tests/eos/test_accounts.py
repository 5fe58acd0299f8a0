"""Tests for the EOS account model."""

import pytest

from repro.common.errors import ChainError
from repro.eos.accounts import (
    EosAccount,
    EosAccountKind,
    EosAccountRegistry,
    PRIVILEGED_SYSTEM_ACCOUNTS,
    is_valid_eos_name,
)


class TestNameValidation:
    @pytest.mark.parametrize("name", ["eosio", "eosio.token", "betdicetasks", "a1b2c3", "user.name"])
    def test_valid_names(self, name):
        assert is_valid_eos_name(name)

    @pytest.mark.parametrize(
        "name",
        ["", "thisnameiswaytoolong", "UPPERCASE", "has_underscore", "digit90", ".leading", "trailing."],
    )
    def test_invalid_names(self, name):
        assert not is_valid_eos_name(name)

    def test_account_constructor_validates(self):
        with pytest.raises(ChainError):
            EosAccount(name="Invalid!")


class TestBalances:
    def test_credit_and_debit_eos(self):
        account = EosAccount(name="alice")
        account.credit(10.0)
        account.debit(4.0)
        assert account.balance() == pytest.approx(6.0)

    def test_debit_insufficient_raises(self):
        account = EosAccount(name="alice", eos_balance=1.0)
        with pytest.raises(ChainError):
            account.debit(2.0)

    def test_token_balances_are_per_symbol(self):
        account = EosAccount(name="alice")
        account.credit(5.0, "EIDOS")
        account.credit(2.0, "USDT")
        assert account.balance("EIDOS") == 5.0
        assert account.balance("USDT") == 2.0
        assert account.balance() == 0.0

    def test_negative_amounts_rejected(self):
        account = EosAccount(name="alice")
        with pytest.raises(ChainError):
            account.credit(-1.0)
        with pytest.raises(ChainError):
            account.debit(-1.0)


class TestRegistry:
    def test_system_accounts_bootstrapped(self):
        registry = EosAccountRegistry()
        for name in PRIVILEGED_SYSTEM_ACCOUNTS:
            assert name in registry
            assert registry.get(name).kind is EosAccountKind.SYSTEM_PRIVILEGED
        assert registry.get("eosio.token").kind is EosAccountKind.SYSTEM

    def test_create_regular_account(self):
        registry = EosAccountRegistry()
        account = registry.create("newuser", creator="eosio", initial_balance=3.0)
        assert account.kind is EosAccountKind.REGULAR
        assert account.creator == "eosio"
        assert registry.get("newuser").balance() == 3.0

    def test_duplicate_creation_rejected(self):
        registry = EosAccountRegistry()
        registry.create("newuser")
        with pytest.raises(ChainError):
            registry.create("newuser")

    def test_unknown_creator_rejected(self):
        registry = EosAccountRegistry()
        with pytest.raises(ChainError):
            registry.create("newuser", creator="ghost")

    def test_get_unknown_raises_maybe_get_returns_none(self):
        registry = EosAccountRegistry()
        with pytest.raises(ChainError):
            registry.get("ghost")
        assert registry.maybe_get("ghost") is None

    def test_total_supply_conserved_by_transfer(self):
        registry = EosAccountRegistry()
        registry.create("alice", initial_balance=100.0)
        registry.create("bob")
        before = sum(account.balance() for account in registry.accounts())
        registry.get("alice").debit(40.0)
        registry.get("bob").credit(40.0)
        assert sum(account.balance() for account in registry.accounts()) == pytest.approx(before)
