"""Partial states combine one way: by payload, through one function.

A figure's scanned state folds across row ranges with
``export_state`` → ``restore_state`` and nothing else; this walks the
sources so a second fold (an accumulator or container ``merge`` twin, or a
second driver in the chunk engine) cannot creep back.

And a payload has one shape: ``finalize`` reads state, it never writes it,
so ``export_state()`` is byte-equal on either side of it for every figure.

A fold target is initialised by ``_reset`` alone — no scan kernel, so an
all-hit report never loads numpy — and must fold states exactly as a target
bound by ``bind_batch`` does (an accumulator that implements ``bind`` alone
gets its fold target through the base ``_reset``: the toy figure of
``tests/analysis/test_figure_table.py`` is one).
"""

from __future__ import annotations

import ast
import glob
import os

from repro.analysis.clustering import AccountClusterer
from repro.analysis.engine import scan
from repro.analysis.parallel import export_states, fold_states
from repro.analysis.report import FIGURES, FigureConfig
from repro.analysis.value import ExchangeRateOracle
from repro.common import statecodec
from repro.common.columns import TxFrame

from tests.support import SRC


def _trees():
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "analysis", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            yield os.path.basename(path), ast.parse(handle.read())


def test_no_class_under_analysis_defines_merge():
    hits = [
        (name, node.name, item.name)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("merge", "_merge")
    ]
    assert hits == []


def test_the_chunk_engine_restores_state_in_one_function():
    (tree,) = (tree for name, tree in _trees() if name == "parallel.py")
    callers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "restore_state"
    ]
    assert callers == ["fold_states"]


def test_finalize_leaves_every_figure_state_alone(
    eos_records, tezos_records, xrp_records, xrp_generator
):
    frame = TxFrame.from_records(
        eos_records[::40] + tezos_records[::10] + xrp_records[::20]
    )
    ledger = xrp_generator.ledger
    oracle = ExchangeRateOracle.from_orderbook(ledger.orderbook)
    clusterer = AccountClusterer(ledger.accounts)
    moved = []
    for chain in frame.chains():
        config = FigureConfig(frame.chain_bounds(chain), oracle, clusterer)
        accumulators = [
            spec.factory(chain, config) for spec in FIGURES if chain in spec.chains
        ]
        scan(accumulators, frame, frame.chain_view(chain).rows)
        for accumulator in accumulators:
            before = statecodec.encode(accumulator.export_state())
            first = accumulator.finalize()
            if (
                statecodec.encode(accumulator.export_state()) != before
                or accumulator.finalize() != first
            ):
                moved.append((chain.value, accumulator.name))
    assert moved == []


def test_reset_targets_fold_states_like_bound_targets(
    eos_records, tezos_records, xrp_records, xrp_generator
):
    """Two row ranges' states, folded into ``_reset`` and ``bind_batch`` targets."""
    frame = TxFrame.from_records(
        eos_records[::40] + tezos_records[::10] + xrp_records[::20]
    )
    # Fold targets bind to an empty frame sharing the pools, as in the engine.
    skeleton = TxFrame.with_pools(
        frame.types, frame.accounts, frame.currencies, frame.errors
    )
    ledger = xrp_generator.ledger
    oracle = ExchangeRateOracle.from_orderbook(ledger.orderbook)
    clusterer = AccountClusterer(ledger.accounts)
    for chain in frame.chains():
        config = FigureConfig(frame.chain_bounds(chain), oracle, clusterer)

        def accumulators():
            return [spec.factory(chain, config) for spec in FIGURES if chain in spec.chains]

        rows = frame.chain_view(chain).rows
        halves = (rows[: len(rows) // 2], rows[len(rows) // 2 :])
        states = []
        for half in halves:
            scanned = accumulators()
            scan(scanned, frame, half)
            states.append({chain.value: export_states(scanned)})
        reset, bound = accumulators(), accumulators()
        for accumulator in reset:
            accumulator._reset(skeleton)
        for accumulator in bound:
            accumulator.bind_batch(skeleton)
        for shipped in states:
            fold_states(shipped, {chain.value: reset})
            fold_states(shipped, {chain.value: bound})
        assert len(reset) == sum(chain in spec.chains for spec in FIGURES)
        for by_reset, by_bind in zip(reset, bound):
            assert statecodec.encode(by_reset.export_state()) == statecodec.encode(
                by_bind.export_state()
            ), (chain.value, by_reset.name)
            assert by_reset.finalize() == by_bind.finalize(), (chain.value, by_reset.name)
