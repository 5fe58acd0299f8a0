"""Figure-level tolerance: the full report in both stats modes.

Two regimes, matching the documented contract:

* at paper scale every sketch is below its capacity, so sketch mode
  reproduces the exact figures bit-for-bit — except the value
  distribution, whose quantile sketch has no exact phase and instead
  carries its alpha relative-error bound;
* forced past capacity (a tiny HLL sparse limit injected into the
  container module), the approximate figures must stay inside the documented
  envelopes while everything the sketches don't touch remains identical.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.analysis import containers as containers_module
from repro.analysis.accounts import AccountActivityAccumulator
from repro.analysis.clustering import AccountClusterer
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle
from repro.common import statsmode
from repro.common.columns import TxFrame
from repro.common.sketches import HyperLogLog, SpaceSaving

from tests.sketches.test_error_bounds import HLL_ENVELOPE, QUANTILE_ENVELOPE


@pytest.fixture(scope="module")
def tolerance_frame(eos_records, tezos_records, xrp_records):
    return TxFrame.from_records(eos_records + tezos_records + xrp_records)


@pytest.fixture(scope="module")
def tolerance_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def tolerance_clusterer(xrp_generator):
    return AccountClusterer(xrp_generator.ledger.accounts)


def _report(frame, oracle, clusterer, mode):
    with statsmode.use_mode(mode):
        return full_report(frame, oracle=oracle, clusterer=clusterer)


def _assert_distribution_within_envelope(sketch_dist, exact_dist):
    if exact_dist is None:
        assert sketch_dist is None
        return
    assert sketch_dist.approximate and not exact_dist.approximate
    assert sketch_dist.count == exact_dist.count
    for attribute in ("total_xrp", "minimum", "maximum", "p50", "p90", "p99"):
        expected = getattr(exact_dist, attribute)
        assert abs(getattr(sketch_dist, attribute) - expected) <= (
            QUANTILE_ENVELOPE * abs(expected)
        ), attribute


def test_paper_scale_sketch_report_matches_exact(
    tolerance_frame, tolerance_oracle, tolerance_clusterer
):
    """Below every sketch capacity the figures are identical, not just close."""
    exact = _report(
        tolerance_frame, tolerance_oracle, tolerance_clusterer, statsmode.EXACT
    )
    sketch = _report(
        tolerance_frame, tolerance_oracle, tolerance_clusterer, statsmode.SKETCH
    )
    assert set(sketch.chains) == set(exact.chains)
    for chain, exact_figures in exact.chains.items():
        sketch_figures = sketch.chains[chain]
        assert set(sketch_figures) == set(exact_figures), chain
        for name in exact_figures:
            if name != "value_distribution":
                assert sketch_figures[name] == exact_figures[name], (chain, name)
        _assert_distribution_within_envelope(
            sketch_figures.get("value_distribution"),
            exact_figures.get("value_distribution"),
        )
    assert sketch.summary().to_rows() == exact.summary().to_rows()


def test_dense_hll_counts_within_envelope(
    tolerance_frame,
    tolerance_oracle,
    tolerance_clusterer,
    monkeypatch,
):
    """Past the sparse limit the distinct counts are estimates — bounded ones."""
    monkeypatch.setattr(
        containers_module, "HyperLogLog", partial(HyperLogLog, sparse_limit=512)
    )
    exact = _report(
        tolerance_frame, tolerance_oracle, tolerance_clusterer, statsmode.EXACT
    )
    sketch = _report(
        tolerance_frame, tolerance_oracle, tolerance_clusterer, statsmode.SKETCH
    )
    for chain, exact_figures in exact.chains.items():
        sketch_figures = sketch.chains[chain]
        exact_stats, sketch_stats = exact_figures["tx_stats"], sketch_figures["tx_stats"]
        expected = exact_stats.transaction_count
        estimated = sketch_stats.transaction_count
        assert abs(estimated - expected) <= HLL_ENVELOPE * expected, chain
        # Row-exact fields of the same figure are untouched by the sketch.
        assert sketch_stats.action_count == exact_stats.action_count
        assert sketch_stats.first_timestamp == exact_stats.first_timestamp
        assert sketch_stats.last_timestamp == exact_stats.last_timestamp
        # ... and so is every figure the HLL plays no part in.
        for name in ("type_distribution", "top_senders"):
            assert sketch_figures[name] == exact_figures[name], (chain, name)


def test_evicting_top_k_stays_inside_certificates(tolerance_frame, monkeypatch):
    """A capacity far below the distinct-pair count still ranks the head.

    The accumulators' production capacity keeps paper workloads exact; this
    forces eviction to check the degradation is the documented envelope.
    The summary keys ``(account, type)`` pairs, so an account's total can
    deviate from the truth by at most ``floor`` per type it uses — over
    (per-pair over-count certificates) or under (an evicted minor-type
    pair) — never by unbounded garbage.
    """
    with statsmode.use_mode(statsmode.EXACT):
        exact = AccountActivityAccumulator("sender", 10).run(tolerance_frame)
    # Force eviction at test scale.
    monkeypatch.setattr(containers_module, "SpaceSaving", partial(SpaceSaving, 64))
    with statsmode.use_mode(statsmode.SKETCH):
        accumulator = AccountActivityAccumulator("sender", 10)
        approximate = accumulator.run(tolerance_frame)
        floor = accumulator.tally.sketch.floor
    assert floor > 0  # the capacity squeeze actually evicted something
    exact_figures = {activity.account: activity for activity in exact}
    # The heaviest senders dominate the stream; estimates may reorder
    # near-ties but the head of the ranking must survive eviction.
    approximate_totals = {
        activity.account: activity.total for activity in approximate
    }
    for activity in exact[:3]:
        assert activity.account in approximate_totals
    for account, total in approximate_totals.items():
        expected = exact_figures.get(account)
        if expected is None:
            continue
        slack = floor * len(expected.type_breakdown)
        assert expected.total - slack <= total <= expected.total + slack, account
