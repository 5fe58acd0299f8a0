"""Plain reference answers: one per accumulator, over the selected records.

Each function here computes one accumulator's ``finalize()`` value from a
list of :class:`~repro.common.records.TransactionRecord` s — the rows a scan
selected, in row order — with a plain loop that reads the record fields and
``record.metadata`` dicts.  None of them touches a frame, a projected column
or a scan kernel, so a kernel that drifts from its figure's meaning cannot
drag its reference along.  ``tests/properties/test_kernel_parity.py``
compares every kernel with its reference on random slices;
:func:`reference_of` is how it finds the reference of an accumulator
instance, from the instance's configuration alone.

Finalize-time helpers that are the figure's definition rather than its scan
(the Figure 1 grouping, the paper's EOS label table) are imported, not
re-derived.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.accounts import (
    AccountActivity,
    AccountActivityAccumulator,
    SenderCountsAccumulator,
    SenderProfile,
    SenderReceiverPairsAccumulator,
)
from repro.analysis.airdrop import (
    AirdropAccumulator,
    AirdropReport,
    BoomerangClaim,
    BoomerangClaimsAccumulator,
)
from repro.analysis.classify import (
    CategoryDistributionAccumulator,
    ContractBreakdownAccumulator,
    TezosCategoryAccumulator,
    TypeDistributionAccumulator,
    TypeDistributionRow,
    figure1_group,
)
from repro.analysis.clustering import ClusterCountsAccumulator
from repro.analysis.engine import TxStats, TxStatsAccumulator
from repro.analysis.flows import ValueFlow, ValueFlowAccumulator, ValueFlowReport
from repro.analysis.governance import GovernanceOpsAccumulator
from repro.analysis.report import (
    eos_figure3_key_columns,
    tezos_figure3_key_columns,
    xrp_figure3_key_columns,
)
from repro.analysis.throughput import ThroughputSeries, ThroughputSeriesAccumulator
from repro.analysis.value import (
    FailureCodeAccumulator,
    ThroughputDecomposition,
    ValueDistribution,
    ValueDistributionAccumulator,
    XrpDecompositionAccumulator,
)
from repro.analysis.washtrading import (
    TRADE_ACTION,
    TradeExtractionAccumulator,
    TradeObservation,
    WashTradeAccumulator,
    WashTradingReport,
)
from repro.common.records import XRP_CURRENCY, ChainId, TransactionRecord
from repro.eos.actions import APPLICATION_CATEGORIES, CATEGORY_OTHERS

Records = Sequence[TransactionRecord]


def _meta(record: TransactionRecord) -> Mapping:
    return record.metadata or {}


# -- dataset characterisation (Figures 1 and 2) ------------------------------------------


def tx_stats(records: Records) -> TxStats:
    """Rows, distinct transaction ids and the time window."""
    stamps = [record.timestamp for record in records]
    return TxStats(
        action_count=len(records),
        transaction_count=len({record.transaction_id for record in records}),
        first_timestamp=min(stamps, default=None),
        last_timestamp=max(stamps, default=None),
    )


def type_distribution(records: Records) -> List[TypeDistributionRow]:
    """Figure 1: counts by (chain, group, type); EOS user actions are "Others"."""
    counts: Counter = Counter()
    totals: Counter = Counter()
    for record in records:
        group = figure1_group(record.chain, record.type, record.contract)
        type_name = record.type
        if record.chain is ChainId.EOS and group == "Others":
            type_name = "Others"
        counts[(record.chain, group, type_name)] += 1
        totals[record.chain] += 1
    rows = [
        TypeDistributionRow(chain, group, type_name, count, count / totals[chain])
        for (chain, group, type_name), count in counts.items()
    ]
    rows.sort(key=lambda row: (row.chain.value, row.group, -row.count, row.type_name))
    return rows


def _shares(counts: Counter) -> Dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {}
    return {label: count / total for label, count in sorted(counts.items())}


def category_distribution(
    records: Records, label_table: Optional[Mapping[str, str]] = None
) -> Dict[str, float]:
    """EOS application-category shares, by the contract each action targets."""
    labels = APPLICATION_CATEGORIES if label_table is None else label_table
    return _shares(
        Counter(
            labels.get(record.contract, CATEGORY_OTHERS)
            for record in records
            if record.chain is ChainId.EOS
        )
    )


def tezos_category_distribution(records: Records) -> Dict[str, float]:
    """Tezos category shares; a row without a ``category`` is ``manager``."""
    return _shares(
        Counter(
            str(_meta(record).get("category", "manager"))
            for record in records
            if record.chain is ChainId.TEZOS
        )
    )


def contract_breakdown(records: Records, contract: str) -> List[Tuple[str, int, float]]:
    """Per-action counts of the EOS actions one contract received."""
    counts = Counter(
        record.type
        for record in records
        if record.chain is ChainId.EOS and record.receiver == contract
    )
    total = sum(counts.values())
    rows = [(name, count, count / total) for name, count in counts.items()]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


# -- throughput (Figure 3) ---------------------------------------------------------------


def eos_figure3_category(record: TransactionRecord) -> str:
    return APPLICATION_CATEGORIES.get(record.contract, CATEGORY_OTHERS)


def xrp_figure3_category(record: TransactionRecord) -> str:
    if not record.success:
        return "Unsuccessful"
    if record.type in ("Payment", "OfferCreate"):
        return record.type
    return "Others"


#: The record categorizer of each key-column categorizer a report uses.
RECORD_CATEGORIZERS: Dict[Callable, Callable[[TransactionRecord], str]] = {
    eos_figure3_key_columns: eos_figure3_category,
    tezos_figure3_key_columns: lambda record: record.type,
    xrp_figure3_key_columns: xrp_figure3_category,
}


def throughput_series(
    records: Records,
    categorize: Callable[[TransactionRecord], str],
    bin_seconds: float,
    start: float,
    end: Optional[float],
) -> ThroughputSeries:
    """Figure 3 bins; categories in first-seen order over bins in time order."""
    bins: Dict[int, Dict[str, int]] = {}
    for record in records:
        stamp = record.timestamp
        if stamp < start or (end is not None and stamp > end):
            continue
        counts = bins.setdefault(int((stamp - start) // bin_seconds), {})
        label = categorize(record)
        counts[label] = counts.get(label, 0) + 1
    categories: Dict[str, None] = {}
    for index in sorted(bins):
        categories.update(dict.fromkeys(bins[index]))
    if end is not None:
        bin_count = int((end - start) // bin_seconds) + 1
    else:
        bin_count = max(bins) + 1 if bins else 0
    return ThroughputSeries(
        bin_seconds, start, tuple(categories), [bins.get(index, {}) for index in range(bin_count)]
    )


# -- accounts (Figures 4, 5, 6 and 8) ----------------------------------------------------


def _ranked(per_account: Dict[str, Counter], limit: int):
    """The ``limit`` busiest accounts, ties by name."""
    return sorted(per_account.items(), key=lambda item: (-sum(item[1].values()), item[0]))[:limit]


def top_accounts(records: Records, side: str, limit: int) -> List[AccountActivity]:
    """Accounts ranked by rows sent (or received), with per-type breakdowns."""
    per_account: Dict[str, Counter] = {}
    chain_total = 0
    for record in records:
        account = getattr(record, side)
        if not account:
            continue
        per_account.setdefault(account, Counter())[record.type] += 1
        chain_total += 1
    result = []
    for account, counter in _ranked(per_account, limit):
        total = sum(counter.values())
        breakdown = sorted(
            ((name, count, count / total) for name, count in counter.items()),
            key=lambda row: (-row[1], row[0]),
        )
        result.append(AccountActivity(account, total, total / chain_total, tuple(breakdown)))
    return result


def sender_receiver_pairs(
    records: Records, limit_senders: int, limit_receivers_per_sender: int
) -> List[SenderProfile]:
    """Figure 5/6: the top senders' receiver fan-out (ties in row order)."""
    per_sender: Dict[str, Counter] = {}
    for record in records:
        if record.sender:
            per_sender.setdefault(record.sender, Counter())[record.receiver or "(none)"] += 1
    profiles = []
    for sender, counter in _ranked(per_sender, limit_senders):
        sent = sum(counter.values())
        counts = list(counter.values())
        mean = sent / len(counts)
        variance = sum((count - mean) ** 2 for count in counts) / len(counts)
        top = tuple(
            (receiver, count, count / sent)
            for receiver, count in counter.most_common(limit_receivers_per_sender)
        )
        profiles.append(SenderProfile(sender, sent, len(counts), mean, math.sqrt(variance), top))
    return profiles


def sender_counts(records: Records) -> Dict[str, int]:
    """Rows per (non-empty) sender."""
    return dict(Counter(record.sender for record in records if record.sender))


def cluster_counts(records: Records, cluster_of: Callable[[str], str], side: str) -> Dict[str, int]:
    """Rows per cluster of the (non-empty) sender or receiver."""
    return dict(
        Counter(cluster_of(getattr(record, side)) for record in records if getattr(record, side))
    )


# -- XRP value (Figures 7 and 12, §4.3) --------------------------------------------------


def _value_payments(records: Records):
    """The successful XRP payments of a positive amount."""
    return [
        record
        for record in records
        if record.chain is ChainId.XRP
        and record.type == "Payment"
        and record.success
        and record.amount > 0
    ]


def xrp_decomposition(records: Records, oracle) -> ThroughputDecomposition:
    """Figure 7: failed / payments (with value) / offers (exchanged) / others."""
    xrp = [record for record in records if record.chain is ChainId.XRP]
    done = [record for record in xrp if record.success]
    payments = [record for record in done if record.type == "Payment"]
    offers = [record for record in done if record.type == "OfferCreate"]
    valued = sum(
        1
        for record in payments
        if record.amount > 0 and oracle.has_value(record.currency, record.issuer)
    )
    exchanged = sum(1 for record in offers if _meta(record).get("executed"))
    return ThroughputDecomposition(
        total=len(xrp),
        failed=len(xrp) - len(done),
        successful=len(done),
        payments=len(payments),
        payments_with_value=valued,
        payments_without_value=len(payments) - valued,
        offers=len(offers),
        offers_exchanged=exchanged,
        offers_not_exchanged=len(offers) - exchanged,
        others=len(done) - len(payments) - len(offers),
    )


def value_distribution(records: Records, oracle, quantiles: Sequence[float]) -> ValueDistribution:
    """§4.3: XRP values of the value-bearing payments, nearest-rank quantiles."""
    values = []
    for record in _value_payments(records):
        rate = oracle.rate(record.currency, record.issuer)
        if rate > 0.0:
            values.append(record.amount * rate)
    values.sort()
    if not values:
        return ValueDistribution(0, 0.0, 0.0, 0.0, *([0.0] * len(quantiles)))
    last = len(values) - 1
    ranked = [values[int(q * last)] for q in quantiles]
    return ValueDistribution(len(values), math.fsum(values), values[0], values[-1], *ranked)


def value_flows(
    records: Records, cluster_of: Callable[[str], str], oracle, include_valueless: bool
) -> ValueFlowReport:
    """Figure 12: XRP value per (sender cluster, receiver cluster, currency),
    summed in row order."""
    flows: Dict[Tuple[str, str, str], List] = {}
    tables: Tuple[Dict[str, float], ...] = ({}, {}, {}, {})
    by_sender, by_receiver, by_currency, face_value = tables
    total = 0.0
    for record in _value_payments(records):
        currency = record.currency or XRP_CURRENCY
        rate = oracle.rate(currency, record.issuer)
        if rate <= 0 and not include_valueless:
            continue
        value = record.amount * rate
        sender, receiver = cluster_of(record.sender), cluster_of(record.receiver)
        flow = flows.setdefault((sender, receiver, currency), [0.0, 0])
        flow[0] += value
        flow[1] += 1
        for table, key, amount in (
            (by_sender, sender, value),
            (by_receiver, receiver, value),
            (by_currency, currency, value),
            (face_value, currency, record.amount),
        ):
            table[key] = table.get(key, 0.0) + amount
        total += value
    bands = [ValueFlow(*key, value, count) for key, (value, count) in flows.items()]
    bands.sort(key=lambda band: -band.xrp_value)
    return ValueFlowReport(bands, total, by_sender, by_receiver, by_currency, face_value)


def failure_codes(records: Records) -> Dict[str, Dict[str, int]]:
    """§3.2: failed XRP rows with an error code, by type and code."""
    table: Dict[str, Dict[str, int]] = {}
    for record in records:
        if record.chain is ChainId.XRP and not record.success and record.error_code:
            codes = table.setdefault(record.type, {})
            codes[record.error_code] = codes.get(record.error_code, 0) + 1
    return table


# -- case studies (§4.1, §4.2) -----------------------------------------------------------


def trades(records: Records, contract: str) -> List[TradeObservation]:
    """The settled trades one EOS DEX contract received, in row order."""
    found = []
    for record in records:
        if record.chain is not ChainId.EOS or record.type != TRADE_ACTION:
            continue
        if record.receiver != contract:
            continue
        meta = _meta(record)
        found.append(
            TradeObservation(
                buyer=str(meta.get("buyer", record.sender)),
                seller=str(meta.get("seller", record.sender)),
                symbol=record.currency or str(meta.get("symbol", "")),
                amount=record.amount,
                timestamp=record.timestamp,
            )
        )
    return found


def wash_trading(records: Records, contract: str, top_n: int) -> WashTradingReport:
    """§4.1: top-account concentration, self-trade shares, net balance changes."""
    observed = trades(records, contract)
    if not observed:
        return WashTradingReport(contract, 0, (), 0.0, 0.0, {}, {})
    involvement: Counter = Counter()
    for trade in observed:
        # Buyer first: ties in ``most_common`` keep first-seen order.
        involvement[trade.buyer] += 1
        if trade.seller != trade.buyer:
            involvement[trade.seller] += 1
    top = tuple(account for account, _ in involvement.most_common(top_n))
    self_trades = [trade for trade in observed if trade.buyer == trade.seller]
    self_share: Dict[str, float] = {}
    net: Dict[str, Dict[str, float]] = {}
    for account in top:
        own = [trade for trade in observed if account in (trade.buyer, trade.seller)]
        self_share[account] = sum(1 for trade in own if trade.buyer == trade.seller) / len(own)
        changes: Dict[str, float] = {}
        for trade in own:
            if trade.buyer != trade.seller:
                sign = 1.0 if trade.buyer == account else -1.0
                changes[trade.symbol] = changes.get(trade.symbol, 0.0) + sign * trade.amount
        net[account] = changes
    involved = sum(1 for trade in observed if trade.buyer in top or trade.seller in top)
    return WashTradingReport(
        contract=contract,
        trade_count=len(observed),
        top_accounts=top,
        top_accounts_trade_share=involved / len(observed),
        self_trade_share_overall=len(self_trades) / len(observed),
        self_trade_share_by_account=self_share,
        net_balance_change_by_account=net,
    )


def boomerang_claims(records: Records, contract: str) -> List[BoomerangClaim]:
    """EIDOS claims: a deposit to the contract refunded (inline, same EOS
    amount) within one transaction, plus the first token grant."""
    groups: Dict[str, List[TransactionRecord]] = {}
    for record in records:
        if record.chain is ChainId.EOS and record.type == "transfer":
            groups.setdefault(record.transaction_id, []).append(record)
    claims = []
    for transaction_id, group in groups.items():
        deposits = [
            record
            for record in group
            if _meta(record).get("transfer_to") == contract and record.sender != contract
        ]
        refunds = [
            record
            for record in group
            if record.sender == contract
            and record.currency == "EOS"
            and _meta(record).get("inline")
        ]
        grants = [
            record
            for record in group
            if record.sender == contract and record.currency not in ("", "EOS")
        ]
        if not deposits or not refunds or abs(deposits[0].amount - refunds[0].amount) > 1e-9:
            continue
        deposit = deposits[0]
        claims.append(
            BoomerangClaim(
                transaction_id,
                deposit.sender,
                deposit.timestamp,
                deposit.amount,
                grants[0].amount if grants else 0.0,
            )
        )
    return claims


def airdrop(records: Records, launch_timestamp: float, contract: str) -> AirdropReport:
    """§4.1: claims, their share of post-launch EOS rows, the rate multiplier."""
    eos = [record for record in records if record.chain is ChainId.EOS]
    claims = boomerang_claims(eos, contract)
    claim_ids = {claim.transaction_id for claim in claims}
    pre = [record.timestamp for record in eos if record.timestamp < launch_timestamp]
    post = [record for record in eos if record.timestamp >= launch_timestamp]

    def rate(stamps: List[float]) -> float:
        if not stamps:
            return 0.0
        duration = max(stamps) - min(stamps)
        return len(stamps) / duration if duration > 0 else float(len(stamps))

    pre_rate = rate(pre)
    post_rate = rate([record.timestamp for record in post])
    claim_rows = sum(1 for record in post if record.transaction_id in claim_ids)
    return AirdropReport(
        launch_timestamp=launch_timestamp,
        claim_count=len(claims),
        total_actions=len(eos),
        post_launch_actions=len(post),
        boomerang_action_share_post_launch=claim_rows / len(post) if post else 0.0,
        traffic_multiplier=post_rate / pre_rate if pre_rate > 0 else float("inf"),
        unique_claimers=len({claim.claimer for claim in claims}),
    )


def governance_ops(records: Records) -> int:
    """§4.2: on-chain Tezos ballots and proposals."""
    return sum(
        1
        for record in records
        if record.chain is ChainId.TEZOS and record.type in ("Ballot", "Proposals")
    )


# -- dispatch ----------------------------------------------------------------------------

#: Accumulator class → ``reference(accumulator, records)``; an entry reads
#: the instance's configuration, never its state.
REFERENCES: Dict[type, Callable] = {
    TxStatsAccumulator: lambda acc, records: tx_stats(records),
    TypeDistributionAccumulator: lambda acc, records: type_distribution(records),
    CategoryDistributionAccumulator: lambda acc, records: category_distribution(
        records, acc.label_table
    ),
    TezosCategoryAccumulator: lambda acc, records: tezos_category_distribution(records),
    ContractBreakdownAccumulator: lambda acc, records: contract_breakdown(records, acc.contract),
    ThroughputSeriesAccumulator: lambda acc, records: throughput_series(
        records, RECORD_CATEGORIZERS[acc.key_columns], acc.bin_seconds, acc.start, acc.end
    ),
    AccountActivityAccumulator: lambda acc, records: top_accounts(records, acc.side, acc.limit),
    SenderReceiverPairsAccumulator: lambda acc, records: sender_receiver_pairs(
        records, acc.limit_senders, acc.limit_receivers_per_sender
    ),
    SenderCountsAccumulator: lambda acc, records: sender_counts(records),
    ClusterCountsAccumulator: lambda acc, records: cluster_counts(
        records, acc.clusterer.cluster_of, acc.side
    ),
    XrpDecompositionAccumulator: lambda acc, records: xrp_decomposition(records, acc.oracle),
    ValueDistributionAccumulator: lambda acc, records: value_distribution(
        records, acc.oracle, acc.QUANTILES
    ),
    ValueFlowAccumulator: lambda acc, records: value_flows(
        records, acc.clusterer.cluster_of, acc.oracle, acc.include_valueless
    ),
    FailureCodeAccumulator: lambda acc, records: failure_codes(records),
    TradeExtractionAccumulator: lambda acc, records: trades(records, acc.contract),
    WashTradeAccumulator: lambda acc, records: wash_trading(records, acc.contract, acc.top_n),
    BoomerangClaimsAccumulator: lambda acc, records: boomerang_claims(records, acc.contract),
    AirdropAccumulator: lambda acc, records: airdrop(records, acc.launch_timestamp, acc.contract),
    GovernanceOpsAccumulator: lambda acc, records: governance_ops(records),
}


def reference_of(accumulator) -> Callable[[Records], object]:
    """``records → finalize() value`` for ``accumulator``'s configuration."""
    reference = REFERENCES[type(accumulator)]
    return lambda records: reference(accumulator, records)
