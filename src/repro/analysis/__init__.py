"""Transaction analytics: the paper's core contribution.

The analysis package consumes the columnar transaction substrate
(:class:`~repro.common.columns.TxFrame`, built from the crawler's block
store or streamed straight out of a workload generator) and computes every
table and figure in the paper's evaluation.  Each module exposes its logic
as a single-pass :class:`~repro.analysis.engine.Accumulator`, and there is
one way to compute a figure: run its accumulator on a frame or view
(``AccountActivityAccumulator("sender", 10).run(frame)``; the
:class:`~repro.analysis.engine.AnalysisEngine` fans any number of them out
over **one** iteration per chain), or read it from the report by name
(``full_report(frame).chains[chain]["top_senders"]``).

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
  on-disk store: workers stream chunk ranges, accumulator states fold by
  payload, deterministically, in chunk order.
"""
