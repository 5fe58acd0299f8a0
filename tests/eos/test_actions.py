"""Tests for the EOS action vocabulary and Figure 1 grouping."""

import pytest

from repro.eos.actions import SystemActionGroup, classify_system_action, make_transfer


class TestClassification:
    def test_transfer_on_token_contract_is_p2p(self):
        assert (
            classify_system_action("transfer", "eosio.token")
            is SystemActionGroup.P2P_TRANSACTION
        )

    def test_transfer_on_user_token_contract_is_p2p(self):
        # User-issued tokens follow the standard interface (§2.3.1), so the
        # paper still counts their transfers in the P2P row.
        assert (
            classify_system_action("transfer", "eidosonecoin")
            is SystemActionGroup.P2P_TRANSACTION
        )

    @pytest.mark.parametrize("name", ["newaccount", "bidname", "updateauth", "linkauth", "deposit"])
    def test_account_actions(self, name):
        assert classify_system_action(name, "eosio") is SystemActionGroup.ACCOUNT_ACTION

    @pytest.mark.parametrize("name", ["delegatebw", "buyram", "voteproducer", "rentcpu"])
    def test_other_actions(self, name):
        assert classify_system_action(name, "eosio") is SystemActionGroup.OTHER_ACTION

    def test_user_defined_action(self):
        assert (
            classify_system_action("verifytrade2", "whaleextrust")
            is SystemActionGroup.USER_DEFINED
        )

    def test_unknown_system_action_falls_back_to_other(self):
        assert classify_system_action("somethingnew", "eosio") is SystemActionGroup.OTHER_ACTION


class TestBuilders:
    def test_make_transfer_targets_token_contract(self):
        action = make_transfer("eosio.token", "alice", "bob", 2.5, "EOS", memo="hi")
        assert action.receiver == "eosio.token"
        assert action.data["to"] == "bob"
        assert action.data["quantity"] == 2.5
        assert (
            classify_system_action(action.name, action.contract)
            is SystemActionGroup.P2P_TRANSACTION
        )
