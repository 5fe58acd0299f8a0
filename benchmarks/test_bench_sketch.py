"""Sketch statistics mode: memory and error gates.

Measures the sketch statistics mode (:func:`bench_sketch_mode`) at
``medium_scenario`` scale and turns the ROADMAP acceptance bars into
assertions:

* **memory** — one sketch-mode ``tx_stats`` pass stays within a fixed
  budget regardless of row count, and its encoded checkpoint state stays
  a few tens of KiB (an HLL register file plus bookkeeping);
* **error** — at ~400k rows the per-chain distinct counts sit past the
  HLL's sparse limit, so the stanza's measured error must hold the
  documented 3-sigma envelope, and the top-sender overlap must be exact
  (the heavy-hitter capacity covers paper-scale account sets).
"""

from __future__ import annotations

import math
from typing import Dict, List

import pytest

from repro.analysis.engine import TxStatsAccumulator
from repro.analysis.report import FullReport, full_report
from repro.cli import Dataset
from repro.common import statsmode
from repro.common.columns import TxFrame

#: 3-sigma relative error of a 2^14-register HyperLogLog.
HLL_ENVELOPE = 3 * 1.04 / math.sqrt(1 << 14)

#: Sketch state is O(1): registers + bookkeeping, never per-key entries.
MAX_STATE_BYTES = 64 * 1024


def bench_sketch_mode(dataset: Dataset) -> Dict[str, object]:
    """Size and error-check the sketch statistics mode.

    Two measurements, independent of the ambient ``REPRO_STATS``:

    * memory — the tracemalloc peak of one sketch-mode ``tx_stats`` pass
      (the frame's id-hash cache is prewarmed outside the trace: it is
      one-time frame state, not accumulator state) and the encoded
      checkpoint size of the resulting sketch;
    * figure-level error vs an exact full report: distinct-count relative
      error per chain, top-senders membership overlap, and payment-value
      quantile relative error.  The bounds documented in
      ``docs/architecture.md`` (and enforced by ``tests/sketches``) should
      comfortably cover what this stanza records.
    """
    import tracemalloc

    from repro.common import statecodec

    frame = dataset.frame
    frame.transaction_id_hashes()  # prewarm: shared frame state, not per-pass
    with statsmode.use_mode(statsmode.SKETCH):
        tracemalloc.start()
        accumulator = TxStatsAccumulator()
        accumulator.run(frame)
        _, traced_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        state_bytes = len(statecodec.encode(accumulator.export_state()))

    def report_in(mode: str) -> FullReport:
        with statsmode.use_mode(mode):
            return full_report(
                frame, oracle=dataset.oracle, clusterer=dataset.clusterer
            )

    exact_report = report_in(statsmode.EXACT)
    sketch_report = report_in(statsmode.SKETCH)
    count_errors: List[float] = []
    overlaps: List[float] = []
    quantile_errors: List[float] = []
    for chain, exact_figures in exact_report.chains.items():
        sketch_figures = sketch_report.chains[chain]
        count = exact_figures["tx_stats"].transaction_count
        if count:
            count_errors.append(
                abs(sketch_figures["tx_stats"].transaction_count - count) / count
            )
        exact_top = [activity.account for activity in exact_figures["top_senders"]]
        sketch_top = {activity.account for activity in sketch_figures["top_senders"]}
        if exact_top:
            overlaps.append(len(sketch_top.intersection(exact_top)) / len(exact_top))
        exact_dist = exact_figures.get("value_distribution")
        sketch_dist = sketch_figures.get("value_distribution")
        if exact_dist is not None and sketch_dist is not None and exact_dist.count:
            for attribute in ("p50", "p90", "p99"):
                reference = getattr(exact_dist, attribute)
                if reference:
                    quantile_errors.append(
                        abs(getattr(sketch_dist, attribute) - reference) / reference
                    )
    return {
        "tx_stats_state_bytes": state_bytes,
        "tx_stats_traced_peak_kb": round(traced_peak / 1024, 1),
        "error_vs_exact": {
            "transaction_count_rel_error_max": round(max(count_errors), 6)
            if count_errors
            else None,
            "top_senders_overlap_min": round(min(overlaps), 6) if overlaps else None,
            "value_quantile_rel_error_max": round(max(quantile_errors), 6)
            if quantile_errors
            else None,
        },
    }


@pytest.fixture(scope="module")
def sketch_dataset(eos_frame, tezos_frame, xrp_frame, xrp_oracle, xrp_clusterer):
    return Dataset(
        frame=TxFrame.concat([eos_frame, tezos_frame, xrp_frame]),
        oracle=xrp_oracle,
        clusterer=xrp_clusterer,
        from_cache=True,
        build_seconds=0.0,
    )


@pytest.fixture(scope="module")
def sketch_stanza(sketch_dataset):
    return bench_sketch_mode(sketch_dataset)


def test_sketch_state_stays_bounded(sketch_stanza):
    assert sketch_stanza["tx_stats_state_bytes"] <= MAX_STATE_BYTES


def test_sketch_error_holds_documented_envelope(sketch_stanza):
    error = sketch_stanza["error_vs_exact"]
    assert error["transaction_count_rel_error_max"] <= HLL_ENVELOPE
    # Heavy-hitter capacity covers the scenario's account set: the ranked
    # top senders are the exact ones, not merely overlapping ones.
    assert error["top_senders_overlap_min"] == 1.0
