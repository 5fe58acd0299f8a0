"""End-to-end summary report, computed in one pass per chain.

Pulls together the headline findings of the paper for a set of crawled
record streams: per-chain TPS, the dominant category share (EIDOS transfers
on EOS, endorsements on Tezos, zero-value traffic on XRP), and the
value-bearing share of XRP throughput.  This is what the quickstart example
prints and what the integration tests assert on.

Two entry points:

* :func:`build_summary_report` — the seed-compatible builder.  It now runs
  the analysis engine with exactly the accumulators each summary needs, so
  every chain costs **one** iteration instead of one per statistic.
* :func:`full_report` / :func:`compute_chain_figures` — the engine
  showcase: Figure 1 (type distribution), Figure 2 statistics (counts,
  window, headline TPS), Figure 3 (binned throughput), the top-account
  tables, the Figure 7 decomposition, the Figure 12 value flows and the
  wash-trading case study, all from a single pass per chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.common.columns import FrameLike, TxFrame, TxView, as_frame, view_of
from repro.common.records import ChainId, TransactionRecord
from repro.analysis.accounts import AccountActivity, AccountActivityAccumulator
from repro.analysis.classify import (
    CategoryDistributionAccumulator,
    TezosCategoryAccumulator,
    TypeDistributionAccumulator,
    TypeDistributionRow,
    eos_category_lookup,
)
from repro.analysis.clustering import AccountClusterer
from repro.analysis.engine import (
    Accumulator,
    AnalysisEngine,
    TxStats,
    TxStatsAccumulator,
)
from repro.analysis.flows import ValueFlowAccumulator, ValueFlowReport
from repro.analysis.throughput import (
    DEFAULT_BIN_SECONDS,
    ThroughputSeries,
    ThroughputSeriesAccumulator,
    transactions_per_second,
)
from repro.analysis.value import (
    ExchangeRateOracle,
    ThroughputDecomposition,
    ValueDistribution,
    ValueDistributionAccumulator,
    XrpDecompositionAccumulator,
)
from repro.analysis.washtrading import WashTradeAccumulator, WashTradingReport

RecordSource = Union[FrameLike, Iterable[TransactionRecord]]


@dataclass(frozen=True)
class ChainSummary:
    """Headline statistics for one chain."""

    chain: ChainId
    transaction_count: int
    action_count: int
    duration_seconds: float
    tps: float
    dominant_label: str
    dominant_share: float
    value_share: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "chain": self.chain.value,
            "transactions": self.transaction_count,
            "actions": self.action_count,
            "tps": round(self.tps, 4),
            "dominant_label": self.dominant_label,
            "dominant_share": round(self.dominant_share, 4),
        }
        if self.value_share is not None:
            row["value_share"] = round(self.value_share, 4)
        return row


@dataclass
class SummaryReport:
    """The cross-chain summary (the paper's "Summary of Findings")."""

    chains: Dict[ChainId, ChainSummary] = field(default_factory=dict)

    def to_rows(self) -> List[Dict[str, object]]:
        return [summary.to_dict() for summary in self.chains.values()]

    def format_text(self) -> str:
        """Human-readable multi-line summary, used by the examples."""
        lines = ["Summary of findings (reproduced):"]
        for summary in self.chains.values():
            line = (
                f"  {summary.chain.value.upper():5s}  "
                f"{summary.transaction_count:>10,d} transactions, "
                f"{summary.tps:8.3f} TPS, "
                f"dominant: {summary.dominant_label} ({summary.dominant_share:.1%})"
            )
            if summary.value_share is not None:
                line += f", value-bearing share: {summary.value_share:.1%}"
            lines.append(line)
        return "\n".join(lines)


def _chain_view(source: RecordSource, chain: ChainId) -> TxView:
    return as_frame(source).chain_view(chain)


def summarize_eos(
    records: RecordSource, eidos_launch_date: str = "2019-11-01"
) -> ChainSummary:
    """Headline EOS summary: transfer dominance driven by the EIDOS airdrop."""
    view = _chain_view(records, ChainId.EOS)
    result = AnalysisEngine(
        [CategoryDistributionAccumulator(), TxStatsAccumulator()]
    ).run(view)
    categories: Dict[str, float] = result["category_distribution"]
    stats: TxStats = result["tx_stats"]
    dominant = max(categories.items(), key=lambda item: item[1]) if categories else ("", 0.0)
    duration = stats.duration_seconds
    return ChainSummary(
        chain=ChainId.EOS,
        transaction_count=stats.transaction_count,
        action_count=stats.action_count,
        duration_seconds=duration,
        tps=transactions_per_second(stats.transaction_count, duration) if duration else 0.0,
        dominant_label=f"category:{dominant[0]}",
        dominant_share=dominant[1],
    )


def summarize_tezos(records: RecordSource) -> ChainSummary:
    """Headline Tezos summary: endorsement (consensus) dominance."""
    view = _chain_view(records, ChainId.TEZOS)
    result = AnalysisEngine(
        [TezosCategoryAccumulator(), TxStatsAccumulator()]
    ).run(view)
    categories: Dict[str, float] = result["tezos_category_distribution"]
    stats: TxStats = result["tx_stats"]
    dominant = max(categories.items(), key=lambda item: item[1]) if categories else ("", 0.0)
    duration = stats.duration_seconds
    tx_count = stats.action_count
    return ChainSummary(
        chain=ChainId.TEZOS,
        transaction_count=tx_count,
        action_count=tx_count,
        duration_seconds=duration,
        tps=transactions_per_second(tx_count, duration) if duration else 0.0,
        dominant_label=f"category:{dominant[0]}",
        dominant_share=dominant[1],
    )


def _dominant_xrp_type(rows: Sequence[TypeDistributionRow]) -> tuple:
    dominant_type = ""
    dominant_share = 0.0
    for row in rows:
        if row.chain is ChainId.XRP and row.share > dominant_share:
            dominant_type, dominant_share = row.type_name, row.share
    return dominant_type, dominant_share


def summarize_xrp(
    records: RecordSource, oracle: ExchangeRateOracle
) -> ChainSummary:
    """Headline XRP summary: the ~2 % economic-value share."""
    view = _chain_view(records, ChainId.XRP)
    result = AnalysisEngine(
        [
            XrpDecompositionAccumulator(oracle),
            TypeDistributionAccumulator(),
            TxStatsAccumulator(),
        ]
    ).run(view)
    decomposition: ThroughputDecomposition = result["xrp_decomposition"]
    stats: TxStats = result["tx_stats"]
    dominant_type, dominant_share = _dominant_xrp_type(result["type_distribution"])
    duration = stats.duration_seconds
    tx_count = stats.action_count
    return ChainSummary(
        chain=ChainId.XRP,
        transaction_count=tx_count,
        action_count=tx_count,
        duration_seconds=duration,
        tps=transactions_per_second(tx_count, duration) if duration else 0.0,
        dominant_label=f"type:{dominant_type}",
        dominant_share=dominant_share,
        value_share=decomposition.economic_value_share,
    )


def build_summary_report(
    eos_records: Optional[RecordSource] = None,
    tezos_records: Optional[RecordSource] = None,
    xrp_records: Optional[RecordSource] = None,
    xrp_oracle: Optional[ExchangeRateOracle] = None,
) -> SummaryReport:
    """Build the cross-chain summary from whichever record streams are given.

    Each stream is coerced into a columnar frame (no-op when already a frame
    or view) and summarised in a single engine pass per chain.
    """
    report = SummaryReport()
    if eos_records is not None:
        eos_frame = as_frame(eos_records)
        if len(view_of(eos_frame)):
            report.chains[ChainId.EOS] = summarize_eos(eos_frame)
    if tezos_records is not None:
        tezos_frame = as_frame(tezos_records)
        if len(view_of(tezos_frame)):
            report.chains[ChainId.TEZOS] = summarize_tezos(tezos_frame)
    if xrp_records is not None:
        xrp_frame = as_frame(xrp_records)
        if len(view_of(xrp_frame)):
            oracle = xrp_oracle or ExchangeRateOracle()
            report.chains[ChainId.XRP] = summarize_xrp(xrp_frame, oracle)
    return report


# -- the full single-pass figure set ---------------------------------------------------
def eos_figure3_key_columns(frame: TxFrame):
    """Key-column categorizer for Figure 3a: EOS application categories."""
    lookup = eos_category_lookup(frame)
    return (frame.contract_code,), lookup.__getitem__


def tezos_figure3_key_columns(frame: TxFrame):
    """Key-column categorizer for Figure 3b: the operation kind."""
    return (frame.type_code,), frame.types.values.__getitem__


def xrp_figure3_key_columns(frame: TxFrame):
    """Key-column categorizer for Figure 3c: Payment / OfferCreate / failed."""
    type_values = frame.types.values
    payment = frame.types.code("Payment")
    offer = frame.types.code("OfferCreate")

    def label(key) -> str:
        success, type_code = key
        if not success:
            return "Unsuccessful"
        if type_code == payment or type_code == offer:
            return type_values[type_code]
        return "Others"

    return (frame.success, frame.type_code), label


#: Figure 3 key-column categorizer factory per chain.
FIGURE3_CATEGORIZERS = {
    ChainId.EOS: eos_figure3_key_columns,
    ChainId.TEZOS: tezos_figure3_key_columns,
    ChainId.XRP: xrp_figure3_key_columns,
}


@dataclass
class ChainFigures:
    """Every figure statistic of one chain, produced by a single pass."""

    chain: ChainId
    type_rows: List[TypeDistributionRow]
    stats: TxStats
    throughput: ThroughputSeries
    top_senders: List[AccountActivity]
    categories: Optional[Dict[str, float]] = None
    top_receivers: Optional[List[AccountActivity]] = None
    wash_trading: Optional[WashTradingReport] = None
    decomposition: Optional[ThroughputDecomposition] = None
    value_flows: Optional[ValueFlowReport] = None
    value_distribution: Optional[ValueDistribution] = None

    @property
    def tps(self) -> float:
        """Headline TPS (distinct transactions for EOS, rows otherwise)."""
        return self.stats.tps(count_actions=self.chain is not ChainId.EOS)

    def to_summary(self) -> ChainSummary:
        duration = self.stats.duration_seconds
        if self.chain is ChainId.XRP:
            dominant_type, dominant_share = _dominant_xrp_type(self.type_rows)
            label, share = f"type:{dominant_type}", dominant_share
        else:
            categories = self.categories or {}
            dominant = (
                max(categories.items(), key=lambda item: item[1])
                if categories
                else ("", 0.0)
            )
            label, share = f"category:{dominant[0]}", dominant[1]
        count = (
            self.stats.transaction_count
            if self.chain is ChainId.EOS
            else self.stats.action_count
        )
        return ChainSummary(
            chain=self.chain,
            transaction_count=count,
            action_count=self.stats.action_count,
            duration_seconds=duration,
            tps=transactions_per_second(count, duration) if duration else 0.0,
            dominant_label=label,
            dominant_share=share,
            value_share=(
                self.decomposition.economic_value_share if self.decomposition else None
            ),
        )


def chain_window(
    coerced: FrameLike, view: TxView, chain: ChainId
) -> Optional[tuple]:
    """(min, max) timestamp of the chain's rows within ``coerced``."""
    if isinstance(coerced, TxFrame):
        # Whole-frame source: the per-chain bounds are tracked at append
        # time, so anchoring the Figure 3 series costs nothing.
        return coerced.chain_bounds(chain)
    # Sub-view source (e.g. a time window): anchor to the view's own
    # window, not the full frame's, so the series has no phantom bins.
    low = view.min_timestamp()
    return (low, view.max_timestamp()) if low is not None else None


def compute_chain_figures(
    source: RecordSource,
    chain: ChainId,
    oracle: Optional[ExchangeRateOracle] = None,
    clusterer: Optional[AccountClusterer] = None,
    bin_seconds: float = DEFAULT_BIN_SECONDS,
    top_limit: int = 10,
) -> ChainFigures:
    """Compute Figure 1/2/3 statistics, headline TPS and the chain's case
    studies in **one** iteration over the chain's rows."""
    coerced = as_frame(source)
    view = coerced.chain_view(chain)
    return _figures_for_view(
        view,
        chain,
        chain_window(coerced, view, chain),
        oracle=oracle,
        clusterer=clusterer,
        bin_seconds=bin_seconds,
        top_limit=top_limit,
    )


def figure_accumulators(
    chain: ChainId,
    bounds: Optional[tuple],
    oracle: Optional[ExchangeRateOracle] = None,
    clusterer: Optional[AccountClusterer] = None,
    bin_seconds: float = DEFAULT_BIN_SECONDS,
    top_limit: int = 10,
    stats: Optional[str] = None,
) -> List[Accumulator]:
    """Fresh accumulator set producing one chain's full figure slate.

    ``bounds`` is the (min, max) timestamp window anchoring the Figure 3
    series.  This factory is what the parallel execution layer ships to
    worker processes (everything it closes over is picklable), so serial and
    sharded runs are guaranteed to configure identical accumulators.
    ``stats`` pins the statistics mode (exact vs sketch) for every
    container-backed accumulator; ``None`` resolves the constructing
    process's active mode — callers shipping this factory across a process
    boundary pass their own resolved mode explicitly so an in-process
    override survives the hop.
    """
    start = bounds[0] if bounds else 0.0
    end = bounds[1] if bounds else None
    accumulators: List[Accumulator] = [
        TypeDistributionAccumulator(),
        TxStatsAccumulator(stats=stats),
        ThroughputSeriesAccumulator(
            key_columns=FIGURE3_CATEGORIZERS[chain],
            bin_seconds=bin_seconds,
            start=start,
            end=end,
        ),
        AccountActivityAccumulator("sender", top_limit, stats=stats),
    ]
    if chain is ChainId.EOS:
        accumulators.append(CategoryDistributionAccumulator())
        accumulators.append(
            AccountActivityAccumulator("receiver", top_limit, stats=stats)
        )
        accumulators.append(WashTradeAccumulator())
    elif chain is ChainId.TEZOS:
        accumulators.append(TezosCategoryAccumulator())
    else:
        if oracle is not None:
            accumulators.append(XrpDecompositionAccumulator(oracle))
            accumulators.append(ValueDistributionAccumulator(oracle, stats=stats))
            if clusterer is not None:
                accumulators.append(ValueFlowAccumulator(clusterer, oracle))
    return accumulators


def figures_from_result(chain: ChainId, result) -> ChainFigures:
    """Assemble one chain's :class:`ChainFigures` from an engine result."""
    return ChainFigures(
        chain=chain,
        type_rows=result["type_distribution"],
        stats=result["tx_stats"],
        throughput=result["throughput_series"],
        top_senders=result["top_senders"],
        categories=result.get("category_distribution")
        or result.get("tezos_category_distribution"),
        top_receivers=result.get("top_receivers"),
        wash_trading=result.get("wash_trading"),
        decomposition=result.get("xrp_decomposition"),
        value_flows=result.get("value_flows"),
        value_distribution=result.get("value_distribution"),
    )


def _figures_for_view(
    view: TxView,
    chain: ChainId,
    bounds: Optional[tuple],
    oracle: Optional[ExchangeRateOracle],
    clusterer: Optional[AccountClusterer],
    bin_seconds: float,
    top_limit: int,
) -> ChainFigures:
    accumulators = figure_accumulators(
        chain, bounds, oracle, clusterer, bin_seconds, top_limit
    )
    result = AnalysisEngine(accumulators).run(view)
    return figures_from_result(chain, result)


@dataclass
class FullReport:
    """The complete figure set for every chain present in a frame."""

    chains: Dict[ChainId, ChainFigures] = field(default_factory=dict)

    def summary(self) -> SummaryReport:
        report = SummaryReport()
        for chain, figures in self.chains.items():
            report.chains[chain] = figures.to_summary()
        return report


def full_report(
    source: RecordSource,
    oracle: Optional[ExchangeRateOracle] = None,
    clusterer: Optional[AccountClusterer] = None,
    bin_seconds: float = DEFAULT_BIN_SECONDS,
    top_limit: int = 10,
) -> FullReport:
    """Every figure for every chain in ``source``, one pass per chain."""
    coerced = as_frame(source)
    frame = coerced.frame if isinstance(coerced, TxView) else coerced
    report = FullReport()
    for chain in frame.chains():
        view = coerced.chain_view(chain)
        # Only report chains actually present in the source: a view may
        # deliberately exclude chains the underlying frame contains.
        if not len(view):
            continue
        report.chains[chain] = _figures_for_view(
            view,
            chain,
            chain_window(coerced, view, chain),
            oracle=oracle,
            clusterer=clusterer,
            bin_seconds=bin_seconds,
            top_limit=top_limit,
        )
    return report
