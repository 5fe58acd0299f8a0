"""Differential property tests: every ``bind_batch`` kernel ≡ its row-step ``bind``.

Each accumulator has at most two scan kernels: ``bind``, the row-step
reference, and ``bind_batch``, the vectorized kernel the engine runs.  No
switch in ``src/`` selects between them — the reference is reached here
through the unbound base-class default, ``Accumulator.bind_batch(acc,
frame)``, which drives ``acc.bind``'s step row by row.  The contract is
figure-for-figure identity, bit-for-bit for the float sums.

The sweep is built from :data:`repro.analysis.report.FIGURES` (every spec's
factory on every chain it declares, so a newly listed figure is compared
against its own ``bind`` automatically) plus the accumulators no spec
names.  Hypothesis drives both kernels over
random slices of a generated multi-chain frame whose rows are **not**
time-sorted (the chains are concatenated): full scans, contiguous windows,
filtered ``TxView`` row arrays, single-chain views (which leave the other
chains empty for the chain-specific accumulators), fully empty selections,
and ragged block sizes down to one row per block.
"""

from __future__ import annotations

import importlib
import pkgutil
from array import array
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.analysis
from repro.analysis.accounts import (
    SenderCountsAccumulator,
    SenderReceiverPairsAccumulator,
)
from repro.analysis.airdrop import AirdropAccumulator, BoomerangClaimsAccumulator
from repro.analysis.classify import ContractBreakdownAccumulator
from repro.analysis.clustering import AccountClusterer, ClusterCountsAccumulator
from repro.analysis.engine import Accumulator, scan_blocks
from repro.analysis.governance import GovernanceOpsAccumulator
from repro.analysis.report import FIGURES, FigureConfig
from repro.analysis.value import ExchangeRateOracle, FailureCodeAccumulator
from repro.analysis.washtrading import TradeExtractionAccumulator
from repro.common.columns import TxFrame, TxView
from repro.common.records import ChainId

PARITY_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def parity_frame(eos_records, tezos_records, xrp_records):
    """A strided multi-chain sample: small enough for many examples, varied
    enough to hit every accumulator's interesting rows (trades, claims,
    failed transactions, valueless payments)."""
    records = eos_records[::40] + tezos_records[::10] + xrp_records[::20]
    frame = TxFrame.from_records(records)
    assert list(frame.timestamp) != sorted(frame.timestamp)
    return frame


@pytest.fixture(scope="module")
def parity_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def parity_clusterer(xrp_generator):
    return AccountClusterer(xrp_generator.ledger.accounts)


def _all_accumulators(frame, oracle, clusterer):
    """A fresh instance of every accumulator: every figure spec on each of
    its chains, plus the accumulators no spec names."""
    bounds = (frame.min_timestamp() or 0.0, frame.max_timestamp())
    config = FigureConfig(bounds, oracle, clusterer)
    accumulators = [
        spec.factory(chain, config) for spec in FIGURES for chain in spec.chains
    ]
    accumulators.extend(
        [
            ContractBreakdownAccumulator("eosio.token"),
            SenderReceiverPairsAccumulator(),
            SenderCountsAccumulator(),
            ClusterCountsAccumulator(clusterer, "sender"),
            FailureCodeAccumulator(),
            TradeExtractionAccumulator(),
            BoomerangClaimsAccumulator(),
            AirdropAccumulator(),
            GovernanceOpsAccumulator(),
        ]
    )
    return accumulators


def _accumulator_classes():
    """Every Accumulator subclass defined under ``repro.analysis``."""
    for module in pkgutil.iter_modules(repro.analysis.__path__):
        importlib.import_module(f"repro.analysis.{module.name}")
    found, stack = set(), [Accumulator]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("repro.analysis.") and cls not in found:
                found.add(cls)
                stack.append(cls)
    return found


def test_sweep_names_every_accumulator_with_two_kernels(
    parity_frame, parity_oracle, parity_clusterer
):
    """The sweep below covers every accumulator class in ``src/``, and none
    defines a scan kernel other than ``bind`` and ``bind_batch``."""
    classes = _accumulator_classes()
    swept = {
        type(accumulator)
        for accumulator in _all_accumulators(parity_frame, parity_oracle, parity_clusterer)
    }
    assert classes - swept == set()
    assert len(classes) == 19
    for cls in classes:
        kernels = {name for name in vars(cls) if "bind" in name}
        assert kernels <= {"bind", "bind_batch"}, cls
        assert hasattr(cls, "_reset"), cls


@st.composite
def selections(draw):
    return {
        "mode": draw(
            st.sampled_from(["all", "window", "subset", "chain", "empty"])
        ),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "block_rows": draw(st.sampled_from([1, 7, 991, 65_536])),
        "chain": draw(st.sampled_from(list(ChainId))),
        "fraction": draw(st.floats(0.05, 0.9)),
        "offset": draw(st.floats(0.0, 0.9)),
    }


def _select_view(frame: TxFrame, params) -> TxView:
    total = len(frame)
    mode = params["mode"]
    if mode == "all":
        return frame.all_rows()
    if mode == "window":
        start = int(params["offset"] * total)
        stop = min(total, start + max(1, int(params["fraction"] * total)))
        return TxView(frame, range(start, stop))
    if mode == "subset":
        count = max(1, int(params["fraction"] * total))
        sample = sorted(Random(params["seed"]).sample(range(total), count))
        rows = array("q", sample)
        return TxView(frame, rows)
    if mode == "chain":
        return frame.chain_view(params["chain"])
    return TxView(frame, array("q"))


def _scan(view: TxView, consumers, block_rows: int) -> None:
    for block in scan_blocks(view.rows, block_rows):
        for consume in consumers:
            consume(block)


@PARITY_SETTINGS
@given(params=selections())
def test_every_accumulator_parity_on_random_slices(
    parity_frame, parity_oracle, parity_clusterer, params
):
    view = _select_view(parity_frame, params)
    shipped = _all_accumulators(parity_frame, parity_oracle, parity_clusterer)
    reference = _all_accumulators(parity_frame, parity_oracle, parity_clusterer)
    consumers = [acc.bind_batch(parity_frame) for acc in shipped]
    consumers += [Accumulator.bind_batch(acc, parity_frame) for acc in reference]
    _scan(view, consumers, params["block_rows"])
    for vectorized, rowstep in zip(shipped, reference):
        # Exact equality — for the float-summing figures (value_flows,
        # airdrop rates) this asserts bit-for-bit serial-path identity.
        assert vectorized.finalize() == rowstep.finalize(), (vectorized.name, params)


@PARITY_SETTINGS
@given(params=selections())
def test_view_helpers_parity_on_random_slices(parity_frame, params):
    """chain_view / min-max agree with plain-Python oracles."""
    view = _select_view(parity_frame, params)
    frame = parity_frame
    rows = list(view.rows)
    stamps = [frame.timestamp[row] for row in rows]
    low = min(stamps, default=None)
    high = max(stamps, default=None)
    assert view.min_timestamp() == low
    assert view.max_timestamp() == high
    chain = params["chain"]
    assert list(view.chain_view(chain).rows) == [
        row for row in rows if frame.chain(row) is chain
    ]
