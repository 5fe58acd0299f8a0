"""Frozen record-based reference implementations of the analysis passes.

Before the single-pass engine landed, every public analysis function walked
the whole ``List[TransactionRecord]`` on its own.  Those seed loops are kept
here, verbatim (only :func:`~repro.analysis.classify.figure1_group` now
takes a row's chain, type and contract instead of the record), so the
**equivalence tests** can assert that each accumulator, run on a frame of
the same rows, produces exactly the result its record-based predecessor
produced, and that the one-pass report reproduces the sum of the individual
passes (``tests/analysis/test_equivalence.py::TestFullReportEquivalence``).

This module lives under ``tests/`` because its only consumer is
``tests/analysis/test_equivalence.py``.  Do not "optimise" these
functions — their value is being a faithful copy of the seed behaviour.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.clock import timestamp_from_iso
from repro.common.errors import AnalysisError
from repro.common.records import ChainId, TransactionRecord
from repro.analysis.accounts import AccountActivity, SenderProfile, _breakdown
from repro.analysis.airdrop import (
    EIDOS_CONTRACT,
    AirdropReport,
    BoomerangClaim,
)
from repro.analysis.classify import (
    TypeDistributionRow,
    classify_eos_category,
    figure1_group,
)
from repro.analysis.clustering import AccountClusterer
from repro.analysis.flows import ValueFlow, ValueFlowReport
from repro.analysis.throughput import DEFAULT_BIN_SECONDS, ThroughputSeries
from repro.analysis.value import ExchangeRateOracle, ThroughputDecomposition
from repro.analysis.washtrading import (
    TRADE_ACTION,
    WHALEEX_CONTRACT,
    TradeObservation,
    WashTradingReport,
    net_balance_changes,
)
from repro.xrp.amounts import XRP_CURRENCY


# -- classify -------------------------------------------------------------------------
def type_distribution(records: Iterable[TransactionRecord]) -> List[TypeDistributionRow]:
    """Seed implementation of Figure 1 (one dedicated pass)."""
    counts: Counter = Counter()
    totals: Counter = Counter()
    for record in records:
        group = figure1_group(record.chain, record.type, record.contract)
        type_name = record.type
        if record.chain is ChainId.EOS and group == "Others":
            type_name = "Others"
        counts[(record.chain, group, type_name)] += 1
        totals[record.chain] += 1
    rows: List[TypeDistributionRow] = []
    for (chain, group, type_name), count in counts.items():
        total = totals[chain]
        rows.append(
            TypeDistributionRow(
                chain=chain,
                group=group,
                type_name=type_name,
                count=count,
                share=count / total if total else 0.0,
            )
        )
    rows.sort(key=lambda row: (row.chain.value, row.group, -row.count, row.type_name))
    return rows


def category_distribution(
    records: Iterable[TransactionRecord],
    label_table: Optional[Mapping[str, str]] = None,
) -> Dict[str, float]:
    """Seed implementation of the EOS category shares (one dedicated pass)."""
    counts: Counter = Counter()
    total = 0
    for record in records:
        if record.chain is not ChainId.EOS:
            continue
        counts[classify_eos_category(record, label_table)] += 1
        total += 1
    if total == 0:
        return {}
    return {category: count / total for category, count in sorted(counts.items())}


def tezos_category_distribution(records: Iterable[TransactionRecord]) -> Dict[str, float]:
    """Seed implementation of the Tezos category shares (one dedicated pass)."""
    counts: Counter = Counter()
    total = 0
    for record in records:
        if record.chain is not ChainId.TEZOS:
            continue
        category = str(record.metadata.get("category", "manager"))
        counts[category] += 1
        total += 1
    if total == 0:
        return {}
    return {category: count / total for category, count in sorted(counts.items())}


# -- throughput -----------------------------------------------------------------------
def bin_throughput(
    records: Iterable[TransactionRecord],
    categorizer: Callable[[TransactionRecord], str],
    bin_seconds: float = DEFAULT_BIN_SECONDS,
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> ThroughputSeries:
    """Seed implementation of the Figure 3 binning (one dedicated pass)."""
    if bin_seconds <= 0:
        raise AnalysisError("bin_seconds must be positive")
    materialized = list(records)
    if not materialized:
        raise AnalysisError("cannot bin an empty record stream")
    timestamps = [record.timestamp for record in materialized]
    series_start = start if start is not None else min(timestamps)
    series_end = end if end is not None else max(timestamps)
    if series_end < series_start:
        raise AnalysisError("end must not precede start")
    bin_count = int((series_end - series_start) // bin_seconds) + 1
    bins: List[Dict[str, int]] = [defaultdict(int) for _ in range(bin_count)]
    categories: Dict[str, None] = {}
    for record in materialized:
        if record.timestamp < series_start or record.timestamp > series_end:
            continue
        index = int((record.timestamp - series_start) // bin_seconds)
        category = categorizer(record)
        categories[category] = None
        bins[index][category] += 1
    return ThroughputSeries(
        bin_seconds=bin_seconds,
        start=series_start,
        categories=tuple(categories),
        bins=[dict(bin_counts) for bin_counts in bins],
    )


# -- accounts -------------------------------------------------------------------------
def top_receivers(
    records: Iterable[TransactionRecord],
    limit: int = 10,
    key: Optional[Callable[[TransactionRecord], str]] = None,
) -> List[AccountActivity]:
    """Seed implementation of the Figure 4 ranking (one dedicated pass)."""
    key = key or (lambda record: record.receiver)
    per_account: Dict[str, Counter] = defaultdict(Counter)
    chain_total = 0
    for record in records:
        receiver = key(record)
        if not receiver:
            continue
        per_account[receiver][record.type] += 1
        chain_total += 1
    ranked = sorted(per_account.items(), key=lambda item: (-sum(item[1].values()), item[0]))
    result = []
    for account, counter in ranked[:limit]:
        total = sum(counter.values())
        result.append(
            AccountActivity(
                account=account,
                total=total,
                share_of_chain=total / chain_total if chain_total else 0.0,
                type_breakdown=_breakdown(counter),
            )
        )
    return result


def top_senders(
    records: Iterable[TransactionRecord],
    limit: int = 10,
    key: Optional[Callable[[TransactionRecord], str]] = None,
) -> List[AccountActivity]:
    """Seed implementation of the Figure 8 ranking (one dedicated pass)."""
    key = key or (lambda record: record.sender)
    per_account: Dict[str, Counter] = defaultdict(Counter)
    chain_total = 0
    for record in records:
        sender = key(record)
        if not sender:
            continue
        per_account[sender][record.type] += 1
        chain_total += 1
    ranked = sorted(per_account.items(), key=lambda item: (-sum(item[1].values()), item[0]))
    result = []
    for account, counter in ranked[:limit]:
        total = sum(counter.values())
        result.append(
            AccountActivity(
                account=account,
                total=total,
                share_of_chain=total / chain_total if chain_total else 0.0,
                type_breakdown=_breakdown(counter),
            )
        )
    return result


def top_sender_receiver_pairs(
    records: Iterable[TransactionRecord],
    limit_senders: int = 5,
    limit_receivers_per_sender: int = 5,
) -> List[SenderProfile]:
    """Seed implementation of the Figure 5/6 profiles (one dedicated pass)."""
    per_sender: Dict[str, Counter] = defaultdict(Counter)
    for record in records:
        if not record.sender:
            continue
        per_sender[record.sender][record.receiver or "(none)"] += 1
    ranked = sorted(per_sender.items(), key=lambda item: (-sum(item[1].values()), item[0]))
    profiles: List[SenderProfile] = []
    for sender, counter in ranked[:limit_senders]:
        sent_count = sum(counter.values())
        counts = list(counter.values())
        unique = len(counts)
        mean = sent_count / unique if unique else 0.0
        variance = (
            sum((count - mean) ** 2 for count in counts) / unique if unique else 0.0
        )
        top = [
            (receiver, count, count / sent_count if sent_count else 0.0)
            for receiver, count in counter.most_common(limit_receivers_per_sender)
        ]
        profiles.append(
            SenderProfile(
                sender=sender,
                sent_count=sent_count,
                unique_receivers=unique,
                mean_per_receiver=mean,
                stdev_per_receiver=math.sqrt(variance),
                top_receivers=tuple(top),
            )
        )
    return profiles


def traffic_concentration(
    records: Iterable[TransactionRecord], top_n: int = 18
) -> float:
    """Seed implementation of the §3.3 concentration (one dedicated pass)."""
    counter: Counter = Counter()
    total = 0
    for record in records:
        if not record.sender:
            continue
        counter[record.sender] += 1
        total += 1
    if total == 0:
        return 0.0
    top = sum(count for _, count in counter.most_common(top_n))
    return top / total


def transactions_per_account_distribution(
    records: Iterable[TransactionRecord],
) -> Dict[str, int]:
    """Seed implementation of the per-sender counts (one dedicated pass)."""
    counter: Counter = Counter()
    for record in records:
        if record.sender:
            counter[record.sender] += 1
    return dict(counter)


def single_transaction_account_share(records: Iterable[TransactionRecord]) -> float:
    """Seed implementation of the one-shot-account share (one dedicated pass)."""
    distribution = transactions_per_account_distribution(records)
    if not distribution:
        return 0.0
    singles = sum(1 for count in distribution.values() if count == 1)
    return singles / len(distribution)


# -- value ----------------------------------------------------------------------------
def decompose(
    records: Iterable[TransactionRecord], oracle: ExchangeRateOracle
) -> ThroughputDecomposition:
    """Seed implementation of the Figure 7 decomposition (one dedicated pass)."""
    total = failed = payments = payments_value = 0
    offers = offers_exchanged = others = 0
    for record in records:
        if record.chain is not ChainId.XRP:
            continue
        total += 1
        if not record.success:
            failed += 1
            continue
        if record.type == "Payment":
            payments += 1
            if (
                record.amount > 0
                and oracle.has_value(record.currency, record.issuer)
            ):
                payments_value += 1
        elif record.type == "OfferCreate":
            offers += 1
            if bool(record.metadata.get("executed")):
                offers_exchanged += 1
        else:
            others += 1
    successful = total - failed
    return ThroughputDecomposition(
        total=total,
        failed=failed,
        successful=successful,
        payments=payments,
        payments_with_value=payments_value,
        payments_without_value=payments - payments_value,
        offers=offers,
        offers_exchanged=offers_exchanged,
        offers_not_exchanged=offers - offers_exchanged,
        others=others,
    )


# -- flows ----------------------------------------------------------------------------
def aggregate_value_flows(
    records: Iterable[TransactionRecord],
    clusterer: AccountClusterer,
    oracle: ExchangeRateOracle,
    include_valueless: bool = False,
) -> ValueFlowReport:
    """Seed implementation of the Figure 12 aggregation (one dedicated pass)."""
    flows: Dict[Tuple[str, str, str], List[float]] = defaultdict(lambda: [0.0, 0])
    by_sender: Dict[str, float] = defaultdict(float)
    by_receiver: Dict[str, float] = defaultdict(float)
    by_currency: Dict[str, float] = defaultdict(float)
    face_value: Dict[str, float] = defaultdict(float)
    total = 0.0
    for record in records:
        if record.chain is not ChainId.XRP:
            continue
        if record.type != "Payment" or not record.success or record.amount <= 0:
            continue
        rate = oracle.rate(record.currency or XRP_CURRENCY, record.issuer)
        xrp_value = record.amount * rate
        if rate <= 0 and not include_valueless:
            continue
        sender_cluster = clusterer.cluster_of(record.sender)
        receiver_cluster = clusterer.cluster_of(record.receiver)
        currency = record.currency or XRP_CURRENCY
        key = (sender_cluster, receiver_cluster, currency)
        flows[key][0] += xrp_value
        flows[key][1] += 1
        by_sender[sender_cluster] += xrp_value
        by_receiver[receiver_cluster] += xrp_value
        by_currency[currency] += xrp_value
        face_value[currency] += record.amount
        total += xrp_value
    flow_list = [
        ValueFlow(
            sender_cluster=sender,
            receiver_cluster=receiver,
            currency=currency,
            xrp_value=value,
            payment_count=int(count),
        )
        for (sender, receiver, currency), (value, count) in flows.items()
    ]
    flow_list.sort(key=lambda flow: -flow.xrp_value)
    return ValueFlowReport(
        flows=flow_list,
        total_xrp_value=total,
        by_sender=dict(by_sender),
        by_receiver=dict(by_receiver),
        by_currency=dict(by_currency),
        currency_face_value=dict(face_value),
    )


# -- wash trading ---------------------------------------------------------------------
def analyze_wash_trading(
    records: Iterable[TransactionRecord],
    contract: str = WHALEEX_CONTRACT,
    top_n: int = 5,
) -> WashTradingReport:
    """Seed implementation of the §4.1 wash-trading pass."""
    trades: List[TradeObservation] = []
    for record in records:
        if record.chain is not ChainId.EOS:
            continue
        if record.receiver != contract or record.type != TRADE_ACTION:
            continue
        buyer = str(record.metadata.get("buyer", record.sender))
        seller = str(record.metadata.get("seller", record.sender))
        trades.append(
            TradeObservation(
                buyer=buyer,
                seller=seller,
                symbol=record.currency or str(record.metadata.get("symbol", "")),
                amount=record.amount,
                timestamp=record.timestamp,
            )
        )
    if not trades:
        return WashTradingReport(
            contract=contract,
            trade_count=0,
            top_accounts=(),
            top_accounts_trade_share=0.0,
            self_trade_share_overall=0.0,
            self_trade_share_by_account={},
            net_balance_change_by_account={},
        )
    involvement: Counter = Counter()
    for trade in trades:
        involvement[trade.buyer] += 1
        if trade.seller != trade.buyer:
            involvement[trade.seller] += 1
    top_accounts = tuple(account for account, _ in involvement.most_common(top_n))
    top_set = set(top_accounts)
    involved_in_top = sum(
        1 for trade in trades if trade.buyer in top_set or trade.seller in top_set
    )
    self_share_overall = sum(1 for trade in trades if trade.is_self_trade) / len(trades)
    self_by_account: Dict[str, float] = {}
    for account in top_accounts:
        own = [
            trade for trade in trades if trade.buyer == account or trade.seller == account
        ]
        if own:
            self_by_account[account] = sum(1 for trade in own if trade.is_self_trade) / len(own)
        else:
            self_by_account[account] = 0.0
    net_changes = net_balance_changes(trades, top_accounts)
    return WashTradingReport(
        contract=contract,
        trade_count=len(trades),
        top_accounts=top_accounts,
        top_accounts_trade_share=involved_in_top / len(trades),
        self_trade_share_overall=self_share_overall,
        self_trade_share_by_account=self_by_account,
        net_balance_change_by_account=net_changes,
    )


# -- airdrop --------------------------------------------------------------------------
def analyze_airdrop(
    records: Iterable[TransactionRecord],
    launch_date: str = "2019-11-01",
    contract: str = EIDOS_CONTRACT,
) -> AirdropReport:
    """Seed implementation of the §4.1 airdrop pass."""
    materialized = [record for record in records if record.chain is ChainId.EOS]
    launch_timestamp = timestamp_from_iso(launch_date)
    claims = _detect_boomerang_claims(materialized, contract)
    claim_action_ids = set()
    for claim in claims:
        claim_action_ids.add(claim.transaction_id)
    post_launch = [record for record in materialized if record.timestamp >= launch_timestamp]
    pre_launch = [record for record in materialized if record.timestamp < launch_timestamp]
    post_launch_claim_actions = sum(
        1 for record in post_launch if record.transaction_id in claim_action_ids
    )

    def rate(records_subset: Sequence[TransactionRecord]) -> float:
        if not records_subset:
            return 0.0
        timestamps = [record.timestamp for record in records_subset]
        duration = max(timestamps) - min(timestamps)
        if duration <= 0:
            return float(len(records_subset))
        return len(records_subset) / duration

    pre_rate = rate(pre_launch)
    post_rate = rate(post_launch)
    multiplier = post_rate / pre_rate if pre_rate > 0 else float("inf")
    return AirdropReport(
        launch_timestamp=launch_timestamp,
        claim_count=len(claims),
        total_actions=len(materialized),
        post_launch_actions=len(post_launch),
        boomerang_action_share_post_launch=(
            post_launch_claim_actions / len(post_launch) if post_launch else 0.0
        ),
        traffic_multiplier=multiplier,
        unique_claimers=len({claim.claimer for claim in claims}),
    )


def _detect_boomerang_claims(
    records: Iterable[TransactionRecord], contract: str = EIDOS_CONTRACT
) -> List[BoomerangClaim]:
    by_transaction: Dict[str, List[TransactionRecord]] = defaultdict(list)
    for record in records:
        if record.chain is ChainId.EOS and record.type == "transfer":
            by_transaction[record.transaction_id].append(record)
    claims: List[BoomerangClaim] = []
    for transaction_id, group in by_transaction.items():
        deposits = [
            record
            for record in group
            if record.metadata.get("transfer_to") == contract and record.sender != contract
        ]
        refunds = [
            record
            for record in group
            if record.sender == contract
            and record.currency == "EOS"
            and record.metadata.get("inline")
        ]
        grants = [
            record
            for record in group
            if record.sender == contract and record.currency not in ("", "EOS")
        ]
        if not deposits or not refunds:
            continue
        deposit = deposits[0]
        refund = refunds[0]
        if abs(deposit.amount - refund.amount) > 1e-9:
            continue
        claims.append(
            BoomerangClaim(
                transaction_id=transaction_id,
                claimer=deposit.sender,
                timestamp=deposit.timestamp,
                eos_amount=deposit.amount,
                eidos_granted=grants[0].amount if grants else 0.0,
            )
        )
    return claims
