"""The full report: every figure of every chain, one pass per chain.

A figure is declared once, beside its accumulator, as a
:class:`~repro.analysis.engine.FigureSpec`.  :data:`FIGURES` lists the specs
in order and everything else walks that table: the accumulator set
(:func:`figure_factory`, all the execution, caching and checkpoint layers
see), the per-chain result (:class:`ChainFigures`, read by figure name) and
the JSON and text renderings.  :meth:`FullReport.summary` is the paper's
"Summary of Findings" table.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.columns import CHAIN_ORDER, FrameLike, TxFrame, TxView
from repro.common.records import ChainId
from repro.analysis.accounts import TOP_RECEIVERS_FIGURE, TOP_SENDERS_FIGURE
from repro.analysis.classify import (
    CATEGORY_DISTRIBUTION_FIGURE,
    TEZOS_CATEGORY_FIGURE,
    TYPE_DISTRIBUTION_FIGURE,
    distribution_as_mapping,
    eos_category_lookup,
)
from repro.analysis.clustering import AccountClusterer
from repro.analysis.engine import (
    TX_STATS_FIGURE,
    Accumulator,
    AnalysisEngine,
    EngineResult,
    FigureSpec,
)
from repro.analysis.flows import VALUE_FLOWS_FIGURE
from repro.analysis.throughput import (
    DEFAULT_BIN_SECONDS,
    ThroughputSeriesAccumulator,
    transactions_per_second,
)
from repro.analysis.value import (
    VALUE_DISTRIBUTION_FIGURE,
    XRP_DECOMPOSITION_FIGURE,
    ExchangeRateOracle,
)
from repro.analysis.washtrading import WASH_TRADING_FIGURE

class ChainSummary(NamedTuple):
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


class SummaryReport:
    """The cross-chain summary (the paper's "Summary of Findings")."""

    def __init__(self, chains: Optional[Dict[ChainId, ChainSummary]] = None):
        self.chains: Dict[ChainId, ChainSummary] = {} if chains is None else chains

    def __repr__(self) -> str:
        return f"SummaryReport(chains={self.chains!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.chains == other.chains

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


# -- the figure table ------------------------------------------------------------------
# The Figure 3 categorizers stay in this module under these names: their
# module-qualified name is part of the series' ``config_signature``, so a move
# or rename would turn every state-cache entry and checkpoint into a miss.
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


class FigureConfig(NamedTuple):
    """What a report hands every :attr:`FigureSpec.factory`.

    ``bounds`` is the chain's (min, max) timestamp window anchoring Figure 3.
    """

    bounds: Optional[tuple] = None
    oracle: Optional[ExchangeRateOracle] = None
    clusterer: Optional[AccountClusterer] = None


THROUGHPUT_SERIES_FIGURE = FigureSpec(
    name=ThroughputSeriesAccumulator.name,
    chains=CHAIN_ORDER,
    factory=lambda chain, config: ThroughputSeriesAccumulator(
        key_columns=FIGURE3_CATEGORIZERS[chain],
        bin_seconds=DEFAULT_BIN_SECONDS,
        start=config.bounds[0] if config.bounds else 0.0,
        end=config.bounds[1] if config.bounds else None,
    ),
    json_key="throughput_bins",
    to_json=lambda series: series.bin_count,
)

#: Every figure of the report.  The order is the accumulator order of each
#: chain's pass — and so the payload order of every state-cache entry and
#: checkpoint blob: append, never reorder.
FIGURES: Tuple[FigureSpec, ...] = (
    TYPE_DISTRIBUTION_FIGURE,
    TX_STATS_FIGURE,
    THROUGHPUT_SERIES_FIGURE,
    TOP_SENDERS_FIGURE,
    CATEGORY_DISTRIBUTION_FIGURE,
    TOP_RECEIVERS_FIGURE,
    WASH_TRADING_FIGURE,
    TEZOS_CATEGORY_FIGURE,
    XRP_DECOMPOSITION_FIGURE,
    VALUE_DISTRIBUTION_FIGURE,
    VALUE_FLOWS_FIGURE,
)


def figure_accumulators(chain: ChainId, config: FigureConfig) -> List[Accumulator]:
    """Fresh accumulator set producing one chain's full figure slate."""
    built = [spec.factory(chain, config) for spec in FIGURES if chain in spec.chains]
    return [accumulator for accumulator in built if accumulator is not None]


def figure_factory(
    chain: ChainId,
    bounds: Optional[tuple],
    oracle: Optional[ExchangeRateOracle] = None,
    clusterer: Optional[AccountClusterer] = None,
) -> Callable[[], List[Accumulator]]:
    """Picklable zero-argument factory of one chain's accumulator set.

    Every execution path builds its accumulators from this (the parallel
    layer ships it to workers), so all configure identical accumulators.
    """
    config = FigureConfig(bounds, oracle, clusterer)
    return partial(figure_accumulators, chain, config)


class ChainFigures:
    """Every figure of one chain, read by figure name (``figures["tx_stats"]``;
    a plain class because a tuple's ``__getitem__`` / ``__iter__`` are not)."""

    __slots__ = ("chain", "result")

    def __init__(self, chain: ChainId, result: EngineResult):
        self.chain = chain
        self.result = result

    def __repr__(self) -> str:
        return f"ChainFigures(chain={self.chain!r}, result={self.result!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.chain, self.result) == (other.chain, other.result)

    @classmethod
    def from_accumulators(
        cls, chain: ChainId, accumulators: Sequence[Accumulator], rows_processed: int
    ) -> "ChainFigures":
        """Finalize scanned (folded, restored) accumulators into figures."""
        results = {accumulator.name: accumulator.finalize() for accumulator in accumulators}
        return cls(chain, EngineResult(results, rows_processed))

    def __getitem__(self, name: str) -> Any:
        return self.result[name]

    def __contains__(self, name: str) -> bool:
        return name in self.result

    def __iter__(self) -> Iterator[str]:
        return iter(self.result)

    def get(self, name: str, default: Any = None) -> Any:
        return self.result.get(name, default)

    @property
    def tps(self) -> float:
        """Headline TPS (distinct transactions for EOS, rows otherwise)."""
        return self["tx_stats"].tps(count_actions=self.chain is not ChainId.EOS)

    def to_summary(self) -> ChainSummary:
        """The chain's row of the Summary-of-Findings table."""
        stats = self["tx_stats"]
        if self.chain is ChainId.XRP:
            kind = "type"
            shares = distribution_as_mapping(self["type_distribution"], self.chain).items()
        else:
            kind = "category"
            shares = (
                self.get("category_distribution")
                or self.get("tezos_category_distribution")
                or {}
            ).items()
        label, share = max(shares, key=lambda item: item[1], default=("", 0.0))
        # Figure 2 counts EOS by distinct transaction, the others by row.
        count = stats.transaction_count if self.chain is ChainId.EOS else stats.action_count
        duration = stats.duration_seconds
        decomposition = self.get("xrp_decomposition")
        return ChainSummary(
            chain=self.chain,
            transaction_count=count,
            action_count=stats.action_count,
            duration_seconds=duration,
            tps=transactions_per_second(count, duration) if duration else 0.0,
            dominant_label=f"{kind}:{label}",
            dominant_share=share,
            value_share=decomposition.economic_value_share if decomposition else None,
        )


def chain_window(source: FrameLike, view: TxView, chain: ChainId) -> Optional[tuple]:
    """(min, max) timestamp of the chain's rows within ``source``."""
    if isinstance(source, TxFrame):
        # Whole-frame source: the per-chain bounds are tracked at append
        # time, so anchoring the Figure 3 series costs nothing.
        return source.chain_bounds(chain)
    # Sub-view source (e.g. a time window): anchor to the view's own
    # window, not the full frame's, so the series has no phantom bins.
    low = view.min_timestamp()
    return (low, view.max_timestamp()) if low is not None else None


class FullReport:
    """The complete figure set for every chain present in a frame."""

    def __init__(self, chains: Optional[Dict[ChainId, ChainFigures]] = None):
        self.chains: Dict[ChainId, ChainFigures] = {} if chains is None else chains

    def __repr__(self) -> str:
        return f"FullReport(chains={self.chains!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.chains == other.chains

    def summary(self) -> SummaryReport:
        return SummaryReport(
            {chain: figures.to_summary() for chain, figures in self.chains.items()}
        )

    def to_dict(self) -> Dict[str, object]:
        """The ``--json`` payload: per chain, the summary row plus every
        figure's ``to_json`` form."""
        payload: Dict[str, object] = {}
        for chain, figures in self.chains.items():
            entry = payload[chain.value] = figures.to_summary().to_dict()
            for spec in FIGURES:
                if spec.to_json is not None and spec.name in figures:
                    value = spec.to_json(figures[spec.name])
                    if value is not None:
                        entry[spec.json_key or spec.name] = value
        return payload

    def format_text(self) -> str:
        """The text report: per chain, a headline and every figure's
        ``render`` lines; then the summary table."""
        lines: List[str] = []
        for chain, figures in self.chains.items():
            lines.append(
                f"\n[{chain.value.upper()}]  {figures['tx_stats'].action_count:,} rows, "
                f"{figures.tps:.3f} TPS, "
                f"{figures['throughput_series'].bin_count} throughput bins"
            )
            for spec in FIGURES:
                if spec.render is not None and spec.name in figures:
                    lines.extend(f"    {line}" for line in spec.render(figures[spec.name]))
        lines.append("\n" + self.summary().format_text())
        return "\n".join(lines)


def full_report(
    source: FrameLike,
    oracle: Optional[ExchangeRateOracle] = None,
    clusterer: Optional[AccountClusterer] = None,
) -> FullReport:
    """Every figure for every chain in ``source`` (a frame or a view of
    one), one pass per chain."""
    frame = source.frame if isinstance(source, TxView) else source
    report = FullReport()
    for chain in frame.chains():
        view = source.chain_view(chain)
        # Only report chains actually present in the source: a view may
        # deliberately exclude chains the underlying frame contains.
        if not len(view):
            continue
        factory = figure_factory(chain, chain_window(source, view, chain), oracle, clusterer)
        report.chains[chain] = ChainFigures(chain, AnalysisEngine(factory()).run(view))
    return report
