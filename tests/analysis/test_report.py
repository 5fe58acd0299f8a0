"""Tests for the cross-chain summary report."""

from repro.common.columns import TxFrame
from repro.common.records import ChainId
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle


class TestSummaryReport:
    def test_empty_report(self):
        report = full_report(TxFrame()).summary()
        assert report.chains == {}
        assert report.to_rows() == []

    def test_single_chain_report(self, eos_frame):
        report = full_report(eos_frame).summary()
        assert set(report.chains) == {ChainId.EOS}
        summary = report.chains[ChainId.EOS]
        assert summary.transaction_count > 0
        assert summary.action_count >= summary.transaction_count
        assert summary.tps > 0.0
        assert summary.dominant_label.startswith("category:")

    def test_full_report_matches_paper_findings(
        self, eos_records, tezos_records, xrp_records, xrp_generator
    ):
        oracle = ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)
        frame = TxFrame.from_records(eos_records + tezos_records + xrp_records)
        report = full_report(frame, oracle=oracle).summary()
        assert set(report.chains) == {ChainId.EOS, ChainId.TEZOS, ChainId.XRP}
        eos = report.chains[ChainId.EOS]
        tezos = report.chains[ChainId.TEZOS]
        xrp = report.chains[ChainId.XRP]
        # EOS traffic dominated by token transfers (EIDOS), Tezos by consensus
        # endorsements, XRP value share tiny — the paper's three headlines.
        assert eos.dominant_label == "category:Tokens"
        assert tezos.dominant_label == "category:consensus"
        assert tezos.dominant_share > 0.7
        assert xrp.value_share is not None and xrp.value_share < 0.1
        rows = report.to_rows()
        assert len(rows) == 3
        assert {row["chain"] for row in rows} == {"eos", "tezos", "xrp"}

    def test_format_text_mentions_every_chain(self, eos_records, tezos_records):
        report = full_report(TxFrame.from_records(eos_records + tezos_records)).summary()
        text = report.format_text()
        assert "EOS" in text
        assert "TEZOS" in text
        assert "dominant" in text

    def test_xrp_without_oracle_defaults_to_zero_value_for_ious(self, xrp_frame):
        # An oracle with no rates: IOU payments carry no value, XRP ones do.
        report = full_report(xrp_frame, oracle=ExchangeRateOracle()).summary()
        xrp = report.chains[ChainId.XRP]
        assert xrp.value_share is not None
        assert 0.0 <= xrp.value_share <= 1.0
