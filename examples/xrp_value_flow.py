"""Case study: zero-value transactions and value flow on the XRP ledger (§4.3).

Generates XRP ledger traffic covering both payment-spam waves and the
December self-dealt BTC IOU trades, then reports:

* the Figure 7 decomposition: failed transactions, payments with and without
  value, offers with and without an exchange — and the economic-value share;
* the Figure 11 exchange-rate table: BTC IOU rates per issuer, including the
  rate collapse of the self-dealt IOU;
* the Figure 12 value flow: top sender/receiver clusters and currencies by
  XRP-denominated volume.

Run with:  python examples/xrp_value_flow.py
"""

from __future__ import annotations

from repro.analysis.clustering import AccountClusterer
from repro.analysis.report import full_report
from repro.analysis.value import (
    ExchangeRateOracle,
    FailureCodeAccumulator,
    detect_self_dealing,
    iou_rate_table,
    rate_history,
)
from repro.common.columns import TxFrame
from repro.common.records import ChainId, iter_transactions
from repro.xrp.workload import (
    BITSTAMP_ISSUER,
    GATEHUB_ISSUER,
    LIQUID_LINKED_ISSUER,
    XrpWorkloadConfig,
    XrpWorkloadGenerator,
)


def main() -> None:
    config = XrpWorkloadConfig(
        start_date="2019-10-01",
        end_date="2020-01-01",
        transactions_per_day=800,
        ledgers_per_day=8,
        ordinary_account_count=120,
        spam_accounts_per_wave=40,
        seed=23,
    )
    print(f"Generating XRP ledger traffic {config.start_date} -> {config.end_date} ...")
    generator = XrpWorkloadGenerator(config)
    blocks = generator.generate()
    records = list(iter_transactions(blocks))
    print(f"  {len(blocks)} ledgers, {len(records)} transactions")

    frame = TxFrame.from_records(records)
    oracle = ExchangeRateOracle.from_orderbook(generator.ledger.orderbook)
    clusterer = AccountClusterer(generator.ledger.accounts)
    figures = full_report(frame, oracle, clusterer).chains[ChainId.XRP]
    decomposition = figures["xrp_decomposition"]

    print("\nThroughput decomposition (Figure 7):")
    print(f"  failed transactions:         {decomposition.failed_share:.1%}")
    print(f"  successful payments:         {decomposition.payments}")
    print(f"    ... with value:            {decomposition.payments_with_value}"
          f"  (1 in {1 / max(decomposition.value_bearing_payment_fraction, 1e-9):.0f})")
    print(f"  successful offers:           {decomposition.offers}")
    print(f"    ... leading to exchange:   {decomposition.offers_exchanged}"
          f"  ({decomposition.offer_fill_fraction:.2%})")
    print(f"  economic-value share of all throughput: {decomposition.economic_value_share:.2%}")
    print(f"  failure codes: {FailureCodeAccumulator().run(frame)}")

    print("\nBTC IOU exchange rates by issuer (Figure 11a):")
    rows = iou_rate_table(
        generator.ledger.orderbook,
        [
            ("BTC", BITSTAMP_ISSUER, "Bitstamp"),
            ("BTC", GATEHUB_ISSUER, "Gatehub Fifth"),
            ("BTC", LIQUID_LINKED_ISSUER, "rKRN... (Liquid-activated issuer)"),
            ("BTC", generator.spam_accounts[0] if generator.spam_accounts else "rSpam", "spam swarm account"),
        ],
    )
    for row in rows:
        label = "valueless" if row.is_valueless else f"{row.average_rate:,.0f} XRP"
        print(f"  {row.issuer_name:35s} {label}")

    history = rate_history(generator.ledger.orderbook, "BTC", LIQUID_LINKED_ISSUER)
    if history:
        print("\nSelf-dealt BTC IOU rate history (Figure 11b):")
        for timestamp, rate in history:
            print(f"  t={timestamp:,.0f}  {rate:,.1f} XRP per BTC IOU")
    findings = detect_self_dealing(records, generator.ledger.orderbook)
    print(f"  self-dealing findings: {len(findings)}"
          f" (buyer had received the IOU straight from its issuer)")

    print("\nValue flow between clusters (Figure 12):")
    flows = figures["value_flows"]
    print(f"  total value moved: {flows.total_xrp_value:,.0f} XRP-equivalent")
    print("  top sender clusters:")
    for name, value in flows.top_senders(5):
        print(f"    {name:28s} {value:>14,.0f} XRP  ({flows.sender_share(name):.1%})")
    print("  top receiver clusters:")
    for name, value in flows.top_receivers(5):
        print(f"    {name:28s} {value:>14,.0f} XRP")
    print("  currencies by XRP-denominated volume:")
    for currency, value in flows.top_currencies(5):
        face = flows.currency_face_value.get(currency, 0.0)
        print(f"    {currency:4s} {value:>14,.0f} XRP  (face value {face:,.0f} {currency})")


if __name__ == "__main__":
    main()
