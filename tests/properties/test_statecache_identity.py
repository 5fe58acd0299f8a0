"""Property-based identity of cached vs uncached out-of-core reports.

The chunk-state aggregate cache is a pure memoization layer: for *any*
chunk partitioning of *any* record mix, a report folded from cached
per-chunk states must be bit-for-bit identical to the same chunked report
computed without a cache.  A mid-run analysis-config change must key every chunk
to a fresh entry (all misses) and still produce the uncached figures —
never a figure computed from the stale configuration's states.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.clustering import AccountClusterer
from repro.analysis.parallel import parallel_report_from_store
from repro.analysis.statecache import ChunkStateCache
from repro.analysis.value import ExchangeRateOracle
from repro.collection.store import FrameStore

from tests.support.reports import assert_reports_identical

DEFAULT_SETTINGS = settings(
    max_examples=15, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


@pytest.fixture(scope="module")
def xrp_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def xrp_clusterer(xrp_generator):
    return AccountClusterer(xrp_generator.ledger.accounts)


def _build_store(tmp_path_factory, records, chunk_rows):
    directory = str(tmp_path_factory.mktemp("prop-store") / "store")
    store = FrameStore(chunk_rows=chunk_rows, directory=directory)
    store.add_records(records)
    store.flush()
    return directory, store.committed_chunk_count


def _report(directory, oracle, clusterer, cache=None):
    return parallel_report_from_store(
        directory, oracle=oracle, clusterer=clusterer, workers=1, cache=cache
    )


@DEFAULT_SETTINGS
@given(
    chunk_rows=st.integers(min_value=311, max_value=2_111),
    eos_take=st.integers(min_value=0, max_value=2_500),
    xrp_take=st.integers(min_value=200, max_value=2_500),
)
def test_cached_report_identical_under_random_partitions(
    tmp_path_factory,
    eos_records,
    xrp_records,
    xrp_oracle,
    xrp_clusterer,
    chunk_rows,
    eos_take,
    xrp_take,
):
    records = eos_records[:eos_take] + xrp_records[:xrp_take]
    directory, chunks = _build_store(tmp_path_factory, records, chunk_rows)
    uncached = _report(directory, xrp_oracle, xrp_clusterer)
    cold = ChunkStateCache.for_store(directory)
    cold_report = _report(directory, xrp_oracle, xrp_clusterer, cache=cold)
    warm = ChunkStateCache.for_store(directory)
    warm_report = _report(directory, xrp_oracle, xrp_clusterer, cache=warm)
    assert (cold.hits, cold.misses) == (0, chunks)
    assert (warm.hits, warm.misses) == (chunks, 0)
    assert_reports_identical(cold_report, uncached, exact_flows=True)
    assert_reports_identical(warm_report, uncached, exact_flows=True)


@DEFAULT_SETTINGS
@given(
    chunk_rows=st.integers(min_value=311, max_value=1_500),
    xrp_take=st.integers(min_value=500, max_value=2_500),
)
def test_config_change_mid_run_forces_misses_not_stale_figures(
    tmp_path_factory,
    xrp_records,
    xrp_oracle,
    xrp_clusterer,
    chunk_rows,
    xrp_take,
):
    directory, chunks = _build_store(
        tmp_path_factory, xrp_records[:xrp_take], chunk_rows
    )
    # Warm the cache under the scenario oracle...
    warm = ChunkStateCache.for_store(directory)
    _report(directory, xrp_oracle, xrp_clusterer, cache=warm)
    assert warm.misses == chunks

    # ...then change the analysis config: a different oracle changes every
    # accumulator config signature, so each chunk keys to a new entry.
    flat_oracle = ExchangeRateOracle({})
    uncached = _report(directory, flat_oracle, xrp_clusterer)
    changed = ChunkStateCache.for_store(directory)
    changed_report = _report(directory, flat_oracle, xrp_clusterer, cache=changed)
    assert (changed.hits, changed.misses) == (0, chunks)
    assert_reports_identical(changed_report, uncached, exact_flows=True)

    # Both configurations now coexist in the cache; each hits its own keys.
    for oracle in (xrp_oracle, flat_oracle):
        rerun = ChunkStateCache.for_store(directory)
        _report(directory, oracle, xrp_clusterer, cache=rerun)
        assert (rerun.hits, rerun.misses) == (chunks, 0)
