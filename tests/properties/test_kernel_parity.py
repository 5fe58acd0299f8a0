"""Differential property tests: every scan kernel ≡ its plain reference.

Each accumulator has one scan kernel, its ``bind_batch``.  Its figure's
meaning lives in ``tests/support/reference.py``: a plain loop over the
selected records that reads ``record.metadata`` dicts and shares no code
with the kernel.  The contract is figure-for-figure identity, bit-for-bit
for the float sums (the references add in row order, as a serial scan does).

The sweep is built from :data:`repro.analysis.report.FIGURES` (every spec's
factory on every chain it declares, so a newly listed figure is compared
against its reference automatically — and fails until it has one) plus the
accumulators no spec names.  Hypothesis drives the kernels over random
slices of a generated multi-chain frame whose rows are **not** time-sorted
(the chains are concatenated): full scans, contiguous windows, filtered
``TxView`` row arrays, single-chain views (which leave the other chains
empty for the chain-specific accumulators), fully empty selections, and
ragged block sizes down to one row per block.  The configurations no sweep
instance uses, and every figure of a report, are compared over whole chains
in ``tests/analysis/test_equivalence.py``.
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
from repro.analysis.accounts import SenderCountsAccumulator, SenderReceiverPairsAccumulator
from repro.analysis.airdrop import AirdropAccumulator, BoomerangClaimsAccumulator
from repro.analysis.classify import ContractBreakdownAccumulator
from repro.analysis.clustering import AccountClusterer, ClusterCountsAccumulator
from repro.analysis.engine import Accumulator, scan_blocks
from repro.analysis.governance import GovernanceOpsAccumulator
from repro.analysis.report import FIGURES, FigureConfig
from repro.analysis.value import ExchangeRateOracle, FailureCodeAccumulator
from repro.analysis.washtrading import TradeExtractionAccumulator
from repro.common.columns import TxFrame, TxView
from repro.common.records import XRP_CURRENCY, ChainId

from tests.support.reference import REFERENCES, reference_of

PARITY_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def parity_records(eos_records, tezos_records, xrp_records, parity_oracle):
    """A multi-chain sample: small enough for many examples, varied enough
    to hit every accumulator's interesting rows.

    * EOS keeps every 40th *transaction* whole, so deposits meet their
      refunds (EIDOS claims) and trades keep their rows;
    * Tezos keeps every 10th row, and — the two-week window holds no
      governance operation — a few are relabelled ballots and proposals,
      so the governance kernel has rows to count;
    * XRP keeps every 20th row plus the nine successful payments in a
      valued IOU, so Figure 12 converts a face value that is not XRP.
    """
    order = {}
    eos = [
        record
        for record in eos_records
        if order.setdefault(record.transaction_id, len(order)) % 40 == 0
    ]
    governance = ("Ballot", "Proposals")
    tezos = [
        record._replace(type=governance[index // 20 % 2]) if index % 20 == 7 else record
        for index, record in enumerate(tezos_records[::10])
    ]
    def valued_iou_payment(record):
        return (
            record.type == "Payment"
            and record.success
            and record.currency not in ("", XRP_CURRENCY)
            and parity_oracle.has_value(record.currency, record.issuer)
        )

    xrp = [
        record
        for index, record in enumerate(xrp_records)
        if index % 20 == 0 or valued_iou_payment(record)
    ]
    return eos + tezos + xrp


@pytest.fixture(scope="module")
def parity_frame(parity_records):
    frame = TxFrame.from_records(parity_records)
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


def test_sweep_names_every_accumulator_with_one_kernel(
    parity_frame, parity_oracle, parity_clusterer
):
    """The sweep below covers every accumulator class in ``src/``; each has
    a reference, resets and scans through its own ``_reset`` and
    ``bind_batch``, and defines no other scan kernel."""
    classes = _accumulator_classes()
    swept = {
        type(accumulator)
        for accumulator in _all_accumulators(parity_frame, parity_oracle, parity_clusterer)
    }
    assert classes - swept == set()
    assert len(classes) == 19
    assert set(REFERENCES) == classes
    for cls in classes:
        kernels = {name for name in vars(cls) if "bind" in name}
        assert kernels <= {"bind_batch"}, cls
        assert cls._reset is not Accumulator._reset, cls
        assert cls.bind_batch is not Accumulator.bind_batch, cls


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
    parity_records, parity_frame, parity_oracle, parity_clusterer, params
):
    view = _select_view(parity_frame, params)
    accumulators = _all_accumulators(parity_frame, parity_oracle, parity_clusterer)
    _scan(view, [acc.bind_batch(parity_frame) for acc in accumulators], params["block_rows"])
    selected = [parity_records[row] for row in view.rows]
    for accumulator in accumulators:
        # Exact equality — for the float-summing figures (value_flows,
        # airdrop rates) this asserts bit-for-bit serial-path identity.
        expected = reference_of(accumulator)(selected)
        assert accumulator.finalize() == expected, (accumulator.name, params)


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
