"""Figure 1 — distribution of transaction types per blockchain.

Regenerates the three columns of the paper's Figure 1 (EOS action types,
Tezos operation kinds, XRP transaction types) from the benchmark-scale
workloads and benchmarks the classification pass.  Shape targets: EOS
``transfer`` > 90 % with user-defined "Others" in single digits, Tezos
endorsements ~82 % with transactions ~16 %, XRP OfferCreate and Payment
around 50 % and 46 %.
"""

from repro.analysis.classify import TypeDistributionAccumulator, distribution_as_mapping
from repro.common.records import ChainId


def _print_column(rows, chain):
    print(f"\nFigure 1 [{chain.value}] — type distribution:")
    for row in rows:
        if row.chain is chain:
            print(f"  {row.group:18s} {row.type_name:22s} {row.count:>9d}  {row.share:6.1%}")


def test_fig1_eos_action_distribution(benchmark, eos_frame):
    rows = benchmark(TypeDistributionAccumulator().run, eos_frame)
    shares = distribution_as_mapping(rows, ChainId.EOS)
    _print_column(rows, ChainId.EOS)
    # Paper: transfer 91.6%, user-defined Others 8.3%, system actions ~0%.
    assert shares["transfer"] > 0.90
    assert shares.get("Others", 0.0) < 0.10
    assert shares["transfer"] == max(shares.values())


def test_fig1_tezos_operation_distribution(benchmark, tezos_frame):
    rows = benchmark(TypeDistributionAccumulator().run, tezos_frame)
    shares = distribution_as_mapping(rows, ChainId.TEZOS)
    _print_column(rows, ChainId.TEZOS)
    # Paper: Endorsement 81.7%, Transaction 16.2%, everything else ~1%.
    assert 0.75 <= shares["Endorsement"] <= 0.88
    assert 0.10 <= shares["Transaction"] <= 0.22
    assert shares.get("Ballot", 0.0) + shares.get("Proposals", 0.0) < 0.01


def test_fig1_xrp_type_distribution(benchmark, xrp_frame):
    rows = benchmark(TypeDistributionAccumulator().run, xrp_frame)
    shares = distribution_as_mapping(rows, ChainId.XRP)
    _print_column(rows, ChainId.XRP)
    # Paper: OfferCreate 50.4%, Payment 46.2%, TrustSet 1.9%, OfferCancel 1.5%.
    assert 0.40 <= shares["OfferCreate"] <= 0.60
    assert 0.35 <= shares["Payment"] <= 0.55
    assert shares["OfferCreate"] + shares["Payment"] > 0.90
    assert shares.get("TrustSet", 0.0) < 0.05
