"""Tests for transaction classification (Figure 1 and EOS categories)."""

import pytest

from repro.common.records import ChainId, TransactionRecord
from repro.analysis.classify import (
    ContractBreakdownAccumulator,
    TezosCategoryAccumulator,
    TypeDistributionAccumulator,
    classify_eos_category,
    distribution_as_mapping,
    figure1_group,
)
from repro.eos.workload import CATEGORY_BETTING, CATEGORY_OTHERS, CATEGORY_TOKENS
from tests.support import run_on_records


def eos_record(type_="transfer", contract="eosio.token", receiver=None):
    return TransactionRecord(
        chain=ChainId.EOS,
        transaction_id="tx",
        block_height=1,
        timestamp=0.0,
        type=type_,
        sender="alice",
        receiver=receiver or contract,
        contract=contract,
    )


def group_of(record):
    return figure1_group(record.chain, record.type, record.contract)


class TestFigure1Groups:
    def test_eos_transfer_is_p2p(self):
        assert group_of(eos_record("transfer", "eosio.token")) == "P2P transaction"

    def test_eos_user_defined_goes_to_others(self):
        assert group_of(eos_record("verifytrade2", "whaleextrust")) == "Others"

    def test_eos_system_account_action(self):
        assert group_of(eos_record("newaccount", "eosio")) == "Account actions"

    def test_tezos_groups(self):
        endorsement = TransactionRecord(
            chain=ChainId.TEZOS, transaction_id="op", block_height=1, timestamp=0.0,
            type="Endorsement", sender="tz1baker", receiver="",
        )
        transaction = TransactionRecord(
            chain=ChainId.TEZOS, transaction_id="op", block_height=1, timestamp=0.0,
            type="Transaction", sender="tz1a", receiver="tz1b",
        )
        assert group_of(endorsement) == "Other actions"
        assert group_of(transaction) == "P2P transaction"

    def test_xrp_groups(self):
        offer = TransactionRecord(
            chain=ChainId.XRP, transaction_id="t", block_height=1, timestamp=0.0,
            type="OfferCreate", sender="rA", receiver="",
        )
        payment = TransactionRecord(
            chain=ChainId.XRP, transaction_id="t", block_height=1, timestamp=0.0,
            type="Payment", sender="rA", receiver="rB",
        )
        trust = TransactionRecord(
            chain=ChainId.XRP, transaction_id="t", block_height=1, timestamp=0.0,
            type="TrustSet", sender="rA", receiver="",
        )
        assert group_of(offer) == "Other actions"
        assert group_of(payment) == "P2P transaction"
        assert group_of(trust) == "Account actions"


class TestTypeDistribution:
    def test_counts_and_shares(self):
        records = [eos_record("transfer")] * 3 + [eos_record("doit", "somedapp")] * 1
        rows = run_on_records(TypeDistributionAccumulator(), records)
        shares = distribution_as_mapping(rows, ChainId.EOS)
        assert shares["transfer"] == pytest.approx(0.75)
        assert shares["Others"] == pytest.approx(0.25)

    def test_user_defined_actions_collapsed_into_others(self):
        records = [eos_record("actionone", "dappone"), eos_record("actiontwo", "dapptwo")]
        rows = run_on_records(TypeDistributionAccumulator(), records)
        rows = [row for row in rows if row.chain is ChainId.EOS]
        assert len(rows) == 1
        assert rows[0].type_name == "Others"
        assert rows[0].count == 2

    def test_multiple_chains_are_independent(self):
        records = [
            eos_record("transfer"),
            TransactionRecord(
                chain=ChainId.XRP, transaction_id="t", block_height=1, timestamp=0.0,
                type="Payment", sender="rA", receiver="rB",
            ),
        ]
        rows = run_on_records(TypeDistributionAccumulator(), records)
        eos_share = distribution_as_mapping(rows, ChainId.EOS)
        xrp_share = distribution_as_mapping(rows, ChainId.XRP)
        assert eos_share["transfer"] == 1.0
        assert xrp_share["Payment"] == 1.0

    def test_empty_input(self):
        assert run_on_records(TypeDistributionAccumulator(), []) == []

    def test_paper_shape_on_generated_eos_traffic(self, eos_figures):
        # Over the full post-launch window the paper reports 91.6% transfers.
        # In the two-week test window (half pre-launch) the share is lower but
        # transfers must still dominate every other named type.
        shares = distribution_as_mapping(eos_figures["type_distribution"], ChainId.EOS)
        assert shares["transfer"] > 0.6
        assert shares["transfer"] == max(shares.values())

    def test_paper_shape_on_generated_tezos_traffic(self, tezos_figures):
        rows = tezos_figures["type_distribution"]
        shares = distribution_as_mapping(rows, ChainId.TEZOS)
        assert 0.70 <= shares["Endorsement"] <= 0.92
        assert shares["Transaction"] > 0.05

    def test_paper_shape_on_generated_xrp_traffic(self, xrp_figures):
        shares = distribution_as_mapping(xrp_figures["type_distribution"], ChainId.XRP)
        assert shares["Payment"] + shares["OfferCreate"] > 0.85
        assert shares.get("TrustSet", 0.0) < 0.1


class TestEosCategories:
    def test_known_contracts_mapped(self):
        assert classify_eos_category(eos_record("transfer", "eosio.token")) == CATEGORY_TOKENS
        assert classify_eos_category(eos_record("log", "betdicetasks")) == CATEGORY_BETTING

    def test_unknown_contract_is_others(self):
        assert classify_eos_category(eos_record("doit", "randomdapp")) == CATEGORY_OTHERS

    def test_custom_label_table(self):
        labels = {"mydapp": "Games"}
        assert classify_eos_category(eos_record("doit", "mydapp"), labels) == "Games"

    def test_non_eos_record_rejected(self):
        record = TransactionRecord(
            chain=ChainId.XRP, transaction_id="t", block_height=1, timestamp=0.0,
            type="Payment", sender="rA", receiver="rB",
        )
        with pytest.raises(ValueError):
            classify_eos_category(record)

    def test_category_distribution_sums_to_one(self, eos_figures):
        distribution = eos_figures["category_distribution"]
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert distribution[CATEGORY_TOKENS] == max(distribution.values())

    def test_action_breakdown_for_token_contract(self, eos_frame):
        breakdown = ContractBreakdownAccumulator("eosio.token").run(eos_frame)
        assert breakdown
        name, count, share = breakdown[0]
        assert name == "transfer"
        assert share > 0.99

    def test_action_breakdown_for_betting_contract(self, eos_frame):
        rows = ContractBreakdownAccumulator("betdicetasks").run(eos_frame)
        breakdown = {name: share for name, _, share in rows}
        assert breakdown["removetask"] > breakdown.get("betrecord", 0.0)

    def test_action_breakdown_unknown_contract(self):
        assert run_on_records(ContractBreakdownAccumulator("ghost"), []) == []


class TestTezosCategories:
    def test_consensus_dominates(self, tezos_figures):
        distribution = tezos_figures["tezos_category_distribution"]
        assert distribution["consensus"] > 0.7
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_empty(self):
        assert run_on_records(TezosCategoryAccumulator(), []) == {}
