"""Transaction analytics: the paper's core contribution.

The analysis package consumes the columnar transaction substrate
(:class:`~repro.common.columns.TxFrame`, built from the crawler's block
store or streamed straight out of a workload generator) and computes every
table and figure in the paper's evaluation.  Each module exposes its logic
as a single-pass :class:`~repro.analysis.engine.Accumulator`; the
:class:`~repro.analysis.engine.AnalysisEngine` fans any number of them out
over **one** iteration per chain, and every seed-era public function remains
available as a thin wrapper.

* :mod:`repro.analysis.engine` — the accumulator protocol and the
  single-pass engine.
* :mod:`repro.analysis.classify` — per-chain transaction-type distribution
  and category labelling (Figure 1, the EOS contract-category table).
* :mod:`repro.analysis.throughput` — time-binned throughput series and TPS
  (Figure 3, the headline 20 / 0.08 / 19 TPS numbers).
* :mod:`repro.analysis.accounts` — top receiver / sender / pair tables
  (Figures 4, 5, 6, 8).
* :mod:`repro.analysis.clustering` — XRP account clustering via usernames
  and activation parents (§3.3).
* :mod:`repro.analysis.washtrading` — WhaleEx wash-trade detection (§4.1).
* :mod:`repro.analysis.airdrop` — EIDOS boomerang detection and congestion
  impact (§4.1).
* :mod:`repro.analysis.governance` — Tezos amendment voting analysis
  (Figure 9, §4.2).
* :mod:`repro.analysis.value` — XRP value-transfer decomposition, exchange-
  rate oracle and zero-value detection (Figure 7, Figure 11, §4.3).
* :mod:`repro.analysis.flows` — value-flow aggregation between clusters and
  currencies (Figure 12).
* :mod:`repro.analysis.report` — the end-to-end summary report and the
  single-pass full figure set.
* :mod:`repro.analysis.parallel` — out-of-core chunk-task execution over an
  on-disk store: workers stream chunk ranges, accumulator states merge
  deterministically in chunk order.
"""

from repro.analysis.accounts import top_receivers, top_senders, top_sender_receiver_pairs
from repro.analysis.classify import (
    classify_eos_category,
    type_distribution,
)
from repro.analysis.engine import (
    Accumulator,
    AnalysisEngine,
    EngineResult,
    TxStatsAccumulator,
    run_single_pass,
)
from repro.analysis.throughput import ThroughputSeries, bin_throughput, transactions_per_second
from repro.analysis.value import XrpValueAnalyzer
from repro.analysis.report import (
    build_summary_report,
    compute_chain_figures,
    figure_accumulators,
    full_report,
)

__all__ = [
    "Accumulator",
    "AnalysisEngine",
    "EngineResult",
    "ThroughputSeries",
    "TxStatsAccumulator",
    "XrpValueAnalyzer",
    "bin_throughput",
    "build_summary_report",
    "classify_eos_category",
    "compute_chain_figures",
    "figure_accumulators",
    "full_report",
    "run_single_pass",
    "top_receivers",
    "top_sender_receiver_pairs",
    "top_senders",
    "transactions_per_second",
    "type_distribution",
]
