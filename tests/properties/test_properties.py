"""Property-based tests (hypothesis) on core data structures and invariants."""

import functools
import gzip
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.compression import decompress_json
from repro.common.ratelimit import TokenBucket
from repro.common.records import BlockRecord, ChainId, TransactionRecord
from repro.common.retry import BackoffPolicy
from repro.common.rng import DeterministicRng
from repro.eos.accounts import EosAccountRegistry
from repro.xrp.amounts import IouAmount, drops_to_xrp, xrp_to_drops
from repro.xrp.orderbook import OrderBook
from repro.xrp.trustlines import TrustLineTable

# Some strategies draw hundreds of values per example; silence the
# too-slow health check to keep the suite deterministic across machines.
DEFAULT_SETTINGS = settings(
    max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


# -- serialisation round trips ----------------------------------------------------
record_strategy = st.builds(
    TransactionRecord,
    chain=st.sampled_from(list(ChainId)),
    transaction_id=st.text(min_size=1, max_size=16),
    block_height=st.integers(min_value=0, max_value=10**9),
    timestamp=st.floats(min_value=0, max_value=2e9, allow_nan=False),
    type=st.text(min_size=1, max_size=20),
    sender=st.text(max_size=20),
    receiver=st.text(max_size=20),
    contract=st.text(max_size=20),
    amount=st.floats(min_value=0, max_value=1e12, allow_nan=False),
    currency=st.sampled_from(["", "EOS", "XRP", "USD", "BTC", "EIDOS"]),
    issuer=st.text(max_size=20),
    fee=st.floats(min_value=0, max_value=100, allow_nan=False),
    success=st.booleans(),
    error_code=st.sampled_from(["", "tecPATH_DRY", "tecUNFUNDED_OFFER"]),
    metadata=st.dictionaries(st.text(max_size=8), st.integers(), max_size=3),
)


@DEFAULT_SETTINGS
@given(record=record_strategy)
def test_transaction_record_serialisation_round_trip(record):
    assert TransactionRecord.from_dict(record.to_dict()) == record


@DEFAULT_SETTINGS
@given(records=st.lists(record_strategy, max_size=10), height=st.integers(0, 10**6))
def test_block_record_counts_and_round_trip(records, height):
    block = BlockRecord(
        chain=ChainId.EOS,
        height=height,
        timestamp=0.0,
        producer="producer01a",
        transactions=tuple(records),
    )
    rebuilt = BlockRecord.from_dict(block.to_dict())
    assert rebuilt.action_count == len(records)
    assert rebuilt.transaction_count <= rebuilt.action_count
    assert rebuilt.transaction_count == len({record.transaction_id for record in records})


@DEFAULT_SETTINGS
@given(payload=st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=5), children, max_size=5),
    max_leaves=20,
))
def test_compression_round_trip(payload):
    """Any JSON document a v1 chunk blob holds decodes back unchanged."""
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert decompress_json(gzip.compress(raw, mtime=0)) == payload


# -- XRP amounts ---------------------------------------------------------------------
@DEFAULT_SETTINGS
@given(xrp=st.floats(min_value=0, max_value=1e11, allow_nan=False))
def test_drops_round_trip_within_one_drop(xrp):
    # One drop of absolute error, plus float rounding at very large amounts.
    assert abs(drops_to_xrp(xrp_to_drops(xrp)) - xrp) <= max(1e-6, xrp * 1e-12)


@DEFAULT_SETTINGS
@given(
    first=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    second=st.floats(min_value=0, max_value=1e9, allow_nan=False),
)
def test_iou_addition_is_commutative(first, second):
    a = IouAmount.iou("USD", first, "rIssuer")
    b = IouAmount.iou("USD", second, "rIssuer")
    assert (a + b).value == (b + a).value


# -- conservation invariants ----------------------------------------------------------
@DEFAULT_SETTINGS
@given(transfers=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.floats(0, 10)), max_size=30))
def test_eos_total_supply_conserved_under_transfers(transfers):
    registry = EosAccountRegistry()
    names = [f"account{letter}" for letter in "abcde"]
    for name in names:
        registry.create(name, initial_balance=100.0)
    total_before = registry.total_supply()
    for sender_index, receiver_index, amount in transfers:
        sender = registry.get(names[sender_index])
        receiver = registry.get(names[receiver_index])
        if sender.balance() >= amount:
            sender.debit(amount)
            receiver.credit(amount)
    assert abs(registry.total_supply() - total_before) < 1e-6


@DEFAULT_SETTINGS
@given(
    operations=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.floats(0.001, 50.0)), max_size=30
    )
)
def test_trustline_transfers_conserve_net_iou_supply(operations):
    """Issued minus redeemed IOUs always equals the sum of holder balances."""
    table = TrustLineTable()
    issuer = "rIssuer"
    holders = ["rA", "rB", "rC", "rD"]
    for holder in holders:
        table.set_trust(holder, "USD", issuer, limit=1e9)
    issued = 0.0
    participants = [issuer] + holders
    for sender_index, receiver_index, amount in operations:
        sender = participants[sender_index]
        receiver = participants[receiver_index + 1] if receiver_index + 1 < len(participants) else issuer
        if sender == receiver:
            continue
        iou = IouAmount.iou("USD", amount, issuer)
        if not table.can_send(sender, iou) or not table.can_receive(receiver, iou):
            continue
        table.transfer(sender, receiver, iou)
        if sender == issuer:
            issued += amount
        if receiver == issuer:
            issued -= amount
    held = sum(table.balance(holder, "USD", issuer) for holder in holders)
    assert abs(held - issued) < 1e-6


# -- order book -------------------------------------------------------------------------
@DEFAULT_SETTINGS
@given(
    offers=st.lists(
        st.tuples(st.booleans(), st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        min_size=1,
        max_size=30,
    )
)
def test_orderbook_fill_invariants(offers):
    """Filled quantities never exceed offered quantities; fills are symmetric."""
    book = OrderBook()
    for sells_btc, amount, price in offers:
        if sells_btc:
            gets = IouAmount.iou("BTC", amount, "rIssuer")
            pays = IouAmount.native(amount * price)
        else:
            gets = IouAmount.native(amount * price)
            pays = IouAmount.iou("BTC", amount, "rIssuer")
        book.place(f"owner{len(book.all_offers())}", gets, pays)
    for offer in book.all_offers():
        assert offer.filled_gets <= offer.taker_gets.value + 1e-9
        assert offer.remaining_gets >= -1e-9
        if offer.was_filled:
            assert offer.filled_pays > 0.0
    # Every execution moves a positive quantity of two distinct assets.
    for execution in book.executions:
        assert execution.sold.value > 0
        assert execution.bought.value > 0
        assert execution.sold.asset_key != execution.bought.asset_key


# -- rate limiting and backoff --------------------------------------------------------
@DEFAULT_SETTINGS
@given(
    rate=st.floats(0.1, 100.0),
    capacity=st.floats(1.0, 100.0),
    requests=st.lists(st.floats(0.0, 100.0), max_size=50),
)
def test_token_bucket_never_exceeds_capacity(rate, capacity, requests):
    bucket = TokenBucket(rate=rate, capacity=capacity)
    granted_in_burst = 0
    for now in sorted(requests):
        if bucket.try_acquire(now):
            granted_in_burst += 1
        assert bucket.tokens <= capacity + 1e-9


@DEFAULT_SETTINGS
@given(
    base=st.floats(0.01, 10.0),
    multiplier=st.floats(1.0, 5.0),
    attempts=st.integers(0, 20),
)
def test_backoff_is_monotonic_and_bounded(base, multiplier, attempts):
    policy = BackoffPolicy(base_delay=base, multiplier=multiplier, max_delay=base * 1000)
    delays = [policy.delay(attempt) for attempt in range(attempts + 1)]
    assert all(later >= earlier - 1e-12 for earlier, later in zip(delays, delays[1:]))
    assert all(delay <= base * 1000 * (1 + policy.jitter_fraction) for delay in delays)


# -- deterministic RNG -----------------------------------------------------------------
@DEFAULT_SETTINGS
@given(seed=st.integers(0, 2**31 - 1), label=st.text(min_size=1, max_size=10))
def test_rng_fork_reproducible(seed, label):
    first = DeterministicRng(seed).fork(label)
    second = DeterministicRng(seed).fork(label)
    assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]


@DEFAULT_SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    weights=st.dictionaries(st.text(min_size=1, max_size=5), st.floats(0.01, 10.0), min_size=1, max_size=8),
)
def test_categorical_always_returns_a_key(seed, weights):
    rng = DeterministicRng(seed)
    for _ in range(20):
        assert rng.categorical(weights) in weights


# -- incremental pipeline identity ---------------------------------------------------
@functools.lru_cache(maxsize=1)
def _pipeline_workload():
    """One small three-chain workload plus its frozen analysis companions.

    Generated once per test session: the property draws random batch
    splits over these records, so the workload itself can stay fixed.
    """
    from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
    from repro.analysis.value import ExchangeRateOracle
    from repro.eos.workload import EosWorkloadConfig, EosWorkloadGenerator
    from repro.tezos.workload import TezosWorkloadConfig, TezosWorkloadGenerator
    from repro.xrp.workload import XrpWorkloadConfig, XrpWorkloadGenerator

    window = {"start_date": "2019-10-30", "end_date": "2019-11-01"}
    eos = EosWorkloadGenerator(
        EosWorkloadConfig(
            transactions_per_day=150, blocks_per_day=8, user_account_count=25,
            seed=11, **window
        )
    )
    tezos = TezosWorkloadGenerator(
        TezosWorkloadConfig(
            blocks_per_day=8, baker_count=8, user_account_count=30,
            seed=12, **window
        )
    )
    xrp = XrpWorkloadGenerator(
        XrpWorkloadConfig(
            transactions_per_day=200, ledgers_per_day=8, ordinary_account_count=25,
            spam_accounts_per_wave=8, seed=13, **window
        )
    )
    records = (
        list(eos.stream_records())
        + list(tezos.stream_records())
        + list(xrp.stream_records())
    )
    oracle = ExchangeRateOracle.from_orderbook(xrp.ledger.orderbook)
    clusterer = StaticAccountClusterer.from_clusterer(
        AccountClusterer(xrp.ledger.accounts), xrp.ledger.accounts.addresses()
    )
    return records, oracle, clusterer


@settings(max_examples=12, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(data=st.data())
def test_random_batch_splits_match_single_pass_report(data):
    """Incremental ``update`` == the chunk engine == one-shot ``full_report``.

    For an arbitrary split of the record stream into ingestion batches —
    any count, any (ragged) sizes, including empty batches — ingesting batch
    by batch into a pipeline and updating after each must end at exactly the
    report of the chunk engine over the same store, and at the figures of a
    single serial pass over all rows (Figure 12's value sums within
    rounding: each update commits the staged tail, so where chunks split
    the rows, and hence the float subtotals, depends on the batch split).
    """
    import tempfile

    from repro.analysis.report import full_report
    from repro.common.columns import TxFrame
    from repro.pipeline import Pipeline
    from tests.support.reports import assert_update_identical

    records, oracle, clusterer = _pipeline_workload()
    total = len(records)
    boundaries = sorted(
        data.draw(
            st.lists(st.integers(0, total), min_size=0, max_size=9),
            label="split boundaries",
        )
    ) + [total]
    report = None
    position = 0
    with tempfile.TemporaryDirectory() as root:
        pipeline = Pipeline(root)
        pipeline.set_analysis_config(oracle, clusterer)
        for boundary in boundaries:
            pipeline.ingest_records(records[position:boundary])
            position = boundary
            report, stats = pipeline.update()
            assert stats.watermark_after == position
        expected = full_report(TxFrame.from_records(records), *pipeline.analysis_config())
        assert_update_identical(report, pipeline, expected)
