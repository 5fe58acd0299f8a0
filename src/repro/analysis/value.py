"""XRP value-transfer analysis (Figure 7, Figure 11, §4.3).

The paper's central XRP finding is that only ~2 % of the ledger's throughput
carries economic value.  Establishing that requires three ingredients, all
implemented here:

* a **decomposition** of throughput into failed transactions, payments and
  offers (Figure 7's sunburst);
* a **price oracle**: an IOU token is only considered valuable if it has a
  positive executed exchange rate against XRP on the ledger's own DEX
  (issuer-specific — "BTC" from a random account is worth nothing);
* **offer outcome accounting**: an offer only moves value if it was filled
  to some extent (merely 0.2 % of offers are).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.common.columns import CHAIN_CODES, CHAIN_ORDER, TxFrame
from repro.common.errors import CollectionError
from repro.common.records import XRP_CURRENCY, ChainId, TransactionRecord
from repro.analysis.clustering import StaticAccountClusterer
from repro.analysis.containers import SortedColumn
from repro.analysis.engine import Accumulator, BatchStep, FigureSpec, RowIndices, config_digest
from repro.analysis.vectorized import block_columns, count_codes
from repro.common.statecodec import pack_code_table, restore_code_table

if TYPE_CHECKING:
    from repro.xrp.orderbook import OrderBook


class ExchangeRateOracle:
    """Issuer-specific IOU → XRP exchange rates, derived from DEX executions.

    Mirrors the Ripple Data API the paper queries: the rate of
    ``(currency, issuer)`` is the average rate of its executed exchanges
    against XRP; tokens that never traded have a rate of zero and are deemed
    valueless (§4.3).
    """

    def __init__(self, rates: Optional[Mapping[Tuple[str, str], float]] = None):
        self._rates: Dict[Tuple[str, str], float] = dict(rates or {})

    @classmethod
    def from_orderbook(cls, orderbook: OrderBook) -> "ExchangeRateOracle":
        """Build the oracle from every asset seen in the book's executions."""
        assets = set()
        for execution in orderbook.executions:
            assets.add(execution.sold.asset_key)
            assets.add(execution.bought.asset_key)
        rates: Dict[Tuple[str, str], float] = {}
        for currency, issuer in assets:
            if currency == XRP_CURRENCY:
                continue
            rates[(currency, issuer)] = orderbook.average_rate_vs_xrp(currency, issuer)
        return cls(rates)

    def rate(self, currency: str, issuer: str) -> float:
        """XRP per unit of the asset; native XRP has rate 1 by definition."""
        if currency == XRP_CURRENCY:
            return 1.0
        return self._rates.get((currency, issuer), 0.0)

    def has_value(self, currency: str, issuer: str) -> bool:
        return self.rate(currency, issuer) > 0.0

    def xrp_value(self, currency: str, issuer: str, amount: float) -> float:
        """Value of ``amount`` of the asset, denominated in XRP."""
        return amount * self.rate(currency, issuer)

    def known_assets(self) -> List[Tuple[str, str]]:
        return sorted(self._rates)

    def signature(self) -> str:
        """Stable digest of the rate table (checkpoint compatibility key)."""
        return config_digest(self._rates)


def decode_analysis_config(
    meta: Mapping[str, object]
) -> Optional[Tuple[ExchangeRateOracle, StaticAccountClusterer]]:
    """The frozen oracle and cluster map a ``meta.json`` carries.

    The one decoder of the ``oracle_rates`` (``[[currency, issuer, rate],
    ...]``) and ``clusters`` (``{address: label}``) fields, shared by the
    dataset cache, the pipeline and fsck.  ``None`` when the meta has
    neither; a missing or malformed field raises
    :class:`~repro.common.errors.CollectionError` — the dataset cache treats
    that as a miss, the pipeline refuses to open.
    """
    if "oracle_rates" not in meta and "clusters" not in meta:
        return None
    rows, clusters = meta.get("oracle_rates"), meta.get("clusters")
    if not isinstance(rows, list) or not all(
        isinstance(row, list)
        and len(row) == 3
        and isinstance(row[0], str)
        and isinstance(row[1], str)
        and type(row[2]) in (int, float)
        for row in rows
    ):
        raise CollectionError("oracle_rates is not a list of [currency, issuer, rate]")
    if not isinstance(clusters, dict) or not all(
        isinstance(label, str) for label in clusters.values()
    ):
        raise CollectionError("clusters is not an address → label mapping")
    rates = {(currency, issuer): rate for currency, issuer, rate in rows}
    return ExchangeRateOracle(rates), StaticAccountClusterer(clusters)


class ThroughputDecomposition(NamedTuple):
    """Figure 7: the full decomposition of XRP ledger throughput."""

    total: int
    failed: int
    successful: int
    payments: int
    payments_with_value: int
    payments_without_value: int
    offers: int
    offers_exchanged: int
    offers_not_exchanged: int
    others: int

    @property
    def failed_share(self) -> float:
        return self.failed / self.total if self.total else 0.0

    @property
    def payment_value_share(self) -> float:
        """Share of *all* throughput that is a value-bearing payment (~2.1 %)."""
        return self.payments_with_value / self.total if self.total else 0.0

    @property
    def offer_exchange_share(self) -> float:
        """Share of *all* throughput that is an offer leading to an exchange."""
        return self.offers_exchanged / self.total if self.total else 0.0

    @property
    def economic_value_share(self) -> float:
        """The paper's 2.3 % headline: value payments plus exchanged offers."""
        return self.payment_value_share + self.offer_exchange_share

    @property
    def value_bearing_payment_fraction(self) -> float:
        """Among successful payments, the fraction with value (1 in 19)."""
        return self.payments_with_value / self.payments if self.payments else 0.0

    @property
    def offer_fill_fraction(self) -> float:
        """Among successful offers, the fraction fulfilled to some extent (0.2 %)."""
        return self.offers_exchanged / self.offers if self.offers else 0.0


def _cached_by_asset(frame: TxFrame, lookup):
    """``lookup(currency, issuer)`` by interned (currency code, issuer code),
    consulted once per distinct pair of the bound frame."""
    currency_values = frame.currencies.values
    account_values = frame.accounts.values
    cache: Dict[Tuple[int, int], object] = {}

    def cached(currency_code: int, issuer_code: int):
        key = (currency_code, issuer_code)
        value = cache.get(key)
        if value is None:
            value = cache[key] = lookup(
                currency_values[currency_code], account_values[issuer_code]
            )
        return value

    return cached


class XrpDecompositionAccumulator(Accumulator):
    """Single-pass Figure 7 decomposition, including the zero-value counters.

    The per-row work is integer comparisons plus one cached oracle lookup
    per distinct (currency, issuer) pair, so the decomposition rides along
    in the engine's shared pass at negligible cost.
    """

    name = "xrp_decomposition"

    def __init__(self, oracle: ExchangeRateOracle):
        self.oracle = oracle

    def _reset(self, frame: TxFrame) -> None:
        #: (chain, success, type) histogram: total / failed / payments /
        #: offers / others all fall out of it at :meth:`finalize`.
        self._bulk: Counter = Counter()
        #: The two tallies the histogram cannot give: payments_value (oracle
        #: check) and offers_exchanged (metadata flag).
        self._counters = [0, 0]
        self._payment_code = frame.types.code("Payment")
        self._offer_code = frame.types.code("OfferCreate")

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: packed (chain, success, type) histogram plus
        boolean-mask reductions for the value and executed-offer counters.

        The oracle check runs once per *distinct* (currency, issuer) pair;
        executed offers are a mask over the projected ``executed`` flag.
        """
        import numpy as np

        self._reset(frame)
        bulk = self._bulk
        counters = self._counters
        chain_codes = frame.ndarray("chain_code")
        type_codes = frame.ndarray("type_code")
        success = frame.ndarray("success")
        amounts = frame.ndarray("amount")
        currency_codes = frame.ndarray("currency_code")
        issuer_codes = frame.ndarray("issuer_code")
        executed = frame.projected()["executed"]
        xrp = CHAIN_CODES[ChainId.XRP]
        payment = -1 if self._payment_code is None else self._payment_code
        offer = -1 if self._offer_code is None else self._offer_code
        valued = _cached_by_asset(frame, self.oracle.has_value)
        sizes = (len(CHAIN_ORDER), 2, len(frame.types))
        account_count = max(len(frame.accounts), 1)

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            chain, ok, types = block_columns(rows, chain_codes, success, type_codes)
            count_codes(bulk, (chain, ok, types), sizes)
            successful_xrp = (chain == xrp) & (ok != 0)
            if not successful_xrp.any():
                return
            payment_mask = successful_xrp & (types == payment)
            if payment_mask.any():
                block_amounts, block_currencies, block_issuers = block_columns(
                    rows, amounts, currency_codes, issuer_codes
                )
                payment_mask &= block_amounts > 0
                if payment_mask.any():
                    pairs = (
                        block_currencies[payment_mask].astype(np.int64) * account_count
                        + block_issuers[payment_mask]
                    )
                    uniques, counts = np.unique(pairs, return_counts=True)
                    counters[0] += sum(
                        count
                        for pair, count in zip(uniques.tolist(), counts.tolist())
                        if valued(*divmod(pair, account_count))
                    )
            offer_mask = successful_xrp & (types == offer)
            if offer_mask.any():
                (flags,) = block_columns(rows, executed)
                counters[1] += int(np.count_nonzero(flags[offer_mask] == 1))

        return consume

    def config_signature(self) -> tuple:
        return (type(self).__qualname__, self.name, self.oracle.signature())

    def export_state(self) -> Dict:
        return {
            "counters": list(self._counters),
            "bulk": pack_code_table(self._bulk, 3) if self._bulk else None,
        }

    def restore_state(self, payload: Dict) -> None:
        for index, value in enumerate(payload["counters"]):
            self._counters[index] += value
        if payload["bulk"] is not None:
            restore_code_table(self._bulk, payload["bulk"])

    def finalize(self) -> ThroughputDecomposition:
        total = failed = payments = offers = others = 0
        xrp = CHAIN_CODES[ChainId.XRP]
        for (chain, ok, type_code), count in self._bulk.items():
            if chain != xrp:
                continue
            total += count
            if not ok:
                failed += count
            elif type_code == self._payment_code:
                payments += count
            elif type_code == self._offer_code:
                offers += count
            else:
                others += count
        payments_value, offers_exchanged = self._counters
        return ThroughputDecomposition(
            total=total,
            failed=failed,
            successful=total - failed,
            payments=payments,
            payments_with_value=payments_value,
            payments_without_value=payments - payments_value,
            offers=offers,
            offers_exchanged=offers_exchanged,
            offers_not_exchanged=offers - offers_exchanged,
            others=others,
        )


def _decomposition_json(decomposition: ThroughputDecomposition) -> Dict[str, object]:
    return {
        "total": decomposition.total,
        "failed": decomposition.failed,
        "payments_with_value": decomposition.payments_with_value,
        "offers_exchanged": decomposition.offers_exchanged,
        "economic_value_share": round(decomposition.economic_value_share, 6),
    }


XRP_DECOMPOSITION_FIGURE = FigureSpec(
    name=XrpDecompositionAccumulator.name,
    chains=(ChainId.XRP,),
    factory=lambda chain, config: (
        XrpDecompositionAccumulator(config.oracle)
        if config.oracle is not None
        else None
    ),
    json_key="decomposition",
    to_json=_decomposition_json,
    render=lambda decomposition: [
        f"economic value share: "
        f"{decomposition.economic_value_share:.2%} (paper: ~2.3%)"
    ],
)


class ValueDistribution(NamedTuple):
    """§4.3 summary of the XRP value actually moved by payments.

    Values are XRP-denominated (IOU amounts convert through the oracle
    rate); only successful payments of positively-rated assets count, the
    same population Figure 7's ``payments_with_value`` slice tallies.
    """

    count: int
    total_xrp: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float

    @property
    def mean(self) -> float:
        return self.total_xrp / self.count if self.count else 0.0


class ValueDistributionAccumulator(Accumulator):
    """Single-pass distribution of XRP-denominated payment values (§4.3).

    The values land in a :class:`~repro.analysis.containers.SortedColumn`
    — every value, sorted at finalize.  It summarises the value *multiset*,
    so shard order never changes the figure.
    """

    name = "value_distribution"

    #: Quantiles the finalized distribution reports.
    QUANTILES = (0.5, 0.9, 0.99)

    def __init__(self, oracle: ExchangeRateOracle):
        self.oracle = oracle
        self.values = SortedColumn()

    def _reset(self, frame: TxFrame) -> None:
        self.values = self.values.fresh(frame)

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: mask value-bearing payments, rate per distinct
        asset pair, one multiply for the whole block.

        The oracle is consulted once per distinct (currency, issuer) pair;
        row values come from a vectorized gather of the block's pair rates.
        """
        import numpy as np

        self._reset(frame)
        add_values = self.values.block_adder()
        chain_codes = frame.ndarray("chain_code")
        type_codes = frame.ndarray("type_code")
        success = frame.ndarray("success")
        amounts = frame.ndarray("amount")
        currency_codes = frame.ndarray("currency_code")
        issuer_codes = frame.ndarray("issuer_code")
        xrp = CHAIN_CODES[ChainId.XRP]
        payment_code = frame.types.code("Payment")
        payment = -1 if payment_code is None else payment_code
        rate = _cached_by_asset(frame, self.oracle.rate)
        account_count = max(len(frame.accounts), 1)

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            chain, ok, types = block_columns(rows, chain_codes, success, type_codes)
            mask = (chain == xrp) & (ok != 0) & (types == payment)
            if not mask.any():
                return
            block_amounts, block_currencies, block_issuers = block_columns(
                rows, amounts, currency_codes, issuer_codes
            )
            mask &= block_amounts > 0
            if not mask.any():
                return
            pairs = (
                block_currencies[mask].astype(np.int64) * account_count
                + block_issuers[mask]
            )
            # ``return_inverse`` is the searchsorted of pairs in uniques, and
            # keeps plain ``np.unique``'s ``numpy.ma`` import out of the scan.
            uniques, positions = np.unique(pairs, return_inverse=True)
            pair_rates = np.array(
                [rate(*divmod(pair, account_count)) for pair in uniques.tolist()],
                dtype=np.float64,
            )
            row_rates = pair_rates[positions]
            valued = row_rates > 0.0
            if valued.any():
                add_values(block_amounts[mask][valued] * row_rates[valued])

        return consume

    def export_state(self) -> Dict:
        return self.values.export_state()

    def restore_state(self, payload: Dict) -> None:
        self.values.restore_state(payload)

    def config_signature(self) -> tuple:
        return (type(self).__qualname__, self.name, self.oracle.signature())

    def finalize(self) -> ValueDistribution:
        count, total, minimum, maximum, ranked = self.values.summary(self.QUANTILES)
        return ValueDistribution(count, total, minimum, maximum, *ranked)


def _value_distribution_json(dist: ValueDistribution) -> Optional[Dict[str, object]]:
    if not dist.count:
        return None
    return {
        "count": dist.count,
        "total_xrp": round(dist.total_xrp, 6),
        "mean": round(dist.mean, 6),
        "min": round(dist.minimum, 6),
        "max": round(dist.maximum, 6),
        "p50": round(dist.p50, 6),
        "p90": round(dist.p90, 6),
        "p99": round(dist.p99, 6),
        # Always false; GOLDEN_REPORT_SHA256 pins the key.
        "approximate": False,
    }


def _value_distribution_text(dist: ValueDistribution) -> List[str]:
    if not dist.count:
        return []
    return [
        f"payment values: {dist.count:,} payments, median "
        f"{dist.p50:,.2f} XRP, p99 {dist.p99:,.2f} XRP"
    ]


VALUE_DISTRIBUTION_FIGURE = FigureSpec(
    name=ValueDistributionAccumulator.name,
    chains=(ChainId.XRP,),
    factory=lambda chain, config: (
        ValueDistributionAccumulator(config.oracle)
        if config.oracle is not None
        else None
    ),
    to_json=_value_distribution_json,
    render=_value_distribution_text,
)


class FailureCodeAccumulator(Accumulator):
    """Single-pass §3.2 error-code table for failed XRP transactions."""

    name = "xrp_failure_codes"

    def _reset(self, frame: TxFrame) -> None:
        self._frame = frame
        self._table: Dict[Tuple[int, int], int] = {}

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: mask failed XRP rows, histogram (type, error)."""
        self._reset(frame)
        table = self._table
        chain_codes = frame.ndarray("chain_code")
        success = frame.ndarray("success")
        type_codes = frame.ndarray("type_code")
        error_codes = frame.ndarray("error_code")
        empty_error = frame.errors.code("")
        xrp = CHAIN_CODES[ChainId.XRP]
        sizes = (len(frame.types), len(frame.errors))

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            chain, ok, types, errors = block_columns(
                rows, chain_codes, success, type_codes, error_codes
            )
            mask = (chain == xrp) & (ok == 0)
            if empty_error is not None:
                mask &= errors != empty_error
            if mask.any():
                count_codes(table, (types[mask], errors[mask]), sizes)

        return consume

    def export_state(self) -> Dict:
        return {"table": pack_code_table(self._table, 2)}

    def restore_state(self, payload: Dict) -> None:
        restore_code_table(self._table, payload["table"])

    def finalize(self) -> Dict[str, Dict[str, int]]:
        type_values = self._frame.types.values
        error_values = self._frame.errors.values
        result: Dict[str, Dict[str, int]] = {}
        for (type_code, error_code), count in self._table.items():
            result.setdefault(type_values[type_code], {})[error_values[error_code]] = count
        return result


class IouRateRow(NamedTuple):
    """One row of Figure 11a: an issuer and its average IOU rate vs XRP."""

    currency: str
    issuer: str
    issuer_name: str
    average_rate: float

    @property
    def is_valueless(self) -> bool:
        return self.average_rate <= 0.0


def iou_rate_table(
    orderbook: OrderBook,
    issuers: Iterable[Tuple[str, str, str]],
) -> List[IouRateRow]:
    """Figure 11a: average executed rate per (currency, issuer).

    ``issuers`` is an iterable of (currency, issuer_address, display_name).
    Issuers whose IOU never traded get a zero rate, reproducing the paper's
    contrast between Bitstamp's BTC (36,050 XRP) and the spammer's BTC (0).
    """
    rows = [
        IouRateRow(
            currency=currency,
            issuer=issuer,
            issuer_name=name,
            average_rate=orderbook.average_rate_vs_xrp(currency, issuer),
        )
        for currency, issuer, name in issuers
    ]
    rows.sort(key=lambda row: -row.average_rate)
    return rows


def rate_history(
    orderbook: OrderBook, currency: str, issuer: str
) -> List[Tuple[float, float]]:
    """Figure 11b: the executed-rate history of one IOU (its rate collapse)."""
    return orderbook.executed_rates_vs_xrp(currency, issuer)


def detect_self_dealing(
    records: Iterable[TransactionRecord], orderbook: OrderBook
) -> List[Dict[str, object]]:
    """Flag IOU issuers whose DEX counterparties received the IOU from them.

    This reproduces the §4.3 Myrone Bagalay finding: the account buying the
    BTC IOU for XRP had itself received the tokens directly from the issuer,
    so the "price" was set between accounts under common control.
    """
    # Who received which IOU directly from its issuer via a Payment?
    received_from_issuer: Dict[Tuple[str, str], set] = defaultdict(set)
    for record in records:
        if record.chain is not ChainId.XRP or record.type != "Payment" or not record.success:
            continue
        if record.currency and record.currency != XRP_CURRENCY and record.sender == record.issuer:
            received_from_issuer[(record.currency, record.issuer)].add(record.receiver)
    findings: List[Dict[str, object]] = []
    for execution in orderbook.executions:
        for amount, buyer in ((execution.sold, execution.buyer), (execution.bought, execution.buyer)):
            key = amount.asset_key
            if amount.currency == XRP_CURRENCY:
                continue
            if buyer in received_from_issuer.get(key, set()):
                findings.append(
                    {
                        "currency": amount.currency,
                        "issuer": amount.issuer,
                        "buyer": buyer,
                        "timestamp": execution.timestamp,
                        "rate": execution.rate,
                        "reason": "buyer previously received this IOU directly from its issuer",
                    }
                )
    return findings
