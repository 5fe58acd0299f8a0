"""EIDOS airdrop / boomerang-transaction analysis (§4.1).

The EIDOS token distribution turns every claim into a "boomerang": the
claimer transfers EOS to the contract, which immediately transfers the same
amount back and grants EIDOS tokens.  After the launch on 2019-11-01 these
claims multiplied the chain's traffic by more than an order of magnitude,
pushed the network into congestion mode and made the market price of CPU
spike.  The analyzer detects boomerang claims in the record stream, measures
their share of post-launch traffic, and summarises the congestion impact
from the resource-market history.

Detection is a single-pass accumulator: the pass collects lightweight
per-transfer tuples grouped by transaction id plus the pre/post-launch rate
statistics; claim matching runs over the grouped tuples at finalise time.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.common.clock import timestamp_from_iso
from repro.common.columns import CHAIN_CODES, TxFrame
from repro.common.records import ChainId
from repro.analysis.engine import Accumulator, BatchStep, RowIndices
from repro.analysis.vectorized import block_columns, matched_rows
from repro.common.statecodec import pack_str_table, pack_strings, restore_str_table, unpack_strings

if TYPE_CHECKING:
    from repro.eos.resources import CongestionSample

#: Account hosting the EIDOS airdrop contract in the simulated workload.
EIDOS_CONTRACT = "eidosonecoin"


class BoomerangClaim(NamedTuple):
    """One detected EIDOS claim (deposit + refund within one transaction)."""

    transaction_id: str
    claimer: str
    timestamp: float
    eos_amount: float
    eidos_granted: float


class AirdropReport(NamedTuple):
    """Findings of the EIDOS airdrop case study."""

    launch_timestamp: float
    claim_count: int
    total_actions: int
    post_launch_actions: int
    boomerang_action_share_post_launch: float
    traffic_multiplier: float
    unique_claimers: int

    @property
    def dominates_post_launch_traffic(self) -> bool:
        """The paper's 95 % headline: claims dominate post-launch traffic."""
        return self.boomerang_action_share_post_launch >= 0.5


#: Lightweight per-transfer tuple collected during the pass:
#: (sender, amount, timestamp, currency, is_deposit_to_contract, is_inline).
_TransferLite = Tuple[str, float, float, str, bool, bool]


def _claims_from_groups(
    groups: Dict[str, List[_TransferLite]], contract: str
) -> List[BoomerangClaim]:
    """Match deposit+refund(+grant) patterns inside grouped transfers."""
    claims: List[BoomerangClaim] = []
    for transaction_id, group in groups.items():
        deposit = refund = grant = None
        for sender, amount, timestamp, currency, to_contract, inline in group:
            if deposit is None and to_contract and sender != contract:
                deposit = (sender, amount, timestamp)
            if sender == contract:
                if refund is None and currency == "EOS" and inline:
                    refund = amount
                if grant is None and currency not in ("", "EOS"):
                    grant = amount
        if deposit is None or refund is None:
            continue
        if abs(deposit[1] - refund) > 1e-9:
            continue
        claims.append(
            BoomerangClaim(
                transaction_id=transaction_id,
                claimer=deposit[0],
                timestamp=deposit[2],
                eos_amount=deposit[1],
                eidos_granted=grant if grant is not None else 0.0,
            )
        )
    return claims


class BoomerangClaimsAccumulator(Accumulator):
    """Single-pass collection of EIDOS boomerang claims."""

    name = "boomerang_claims"

    def __init__(self, contract: str = EIDOS_CONTRACT):
        self.contract = contract

    def _reset(self, frame: TxFrame) -> None:
        self._groups = defaultdict(list)

    def _grouper(self, frame: TxFrame) -> Callable:
        """``group(rows)``: group the EOS transfer rows at ``rows`` (an index
        ndarray) by transaction id, from the projected columns."""
        groups = self._groups
        projected = frame.projected()
        contract = frame.meta_strings.code(self.contract)
        names = ("sender_code", "amount", "timestamp", "currency_code")
        columns = [*map(frame.ndarray, names), projected["transfer_to"], projected["inline"]]
        accounts, currencies, ids = frame.accounts.values, frame.currencies.values, frame.transaction_id

        def group(rows) -> None:
            senders, amounts, times, codes, targets, inline = (column[rows] for column in columns)
            transfers = zip(
                map(accounts.__getitem__, senders.tolist()),
                amounts.tolist(),
                times.tolist(),
                map(currencies.__getitem__, codes.tolist()),
                (targets == (-2 if contract is None else contract)).tolist(),
                (inline == 1).tolist(),
            )
            for transaction_id, transfer in zip(map(ids.__getitem__, rows.tolist()), transfers):
                groups[transaction_id].append(transfer)

        return group

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Boolean-mask kernel: only EOS transfer rows pay the grouping."""
        self._reset(frame)
        transfer_code = frame.types.code("transfer")
        if transfer_code is None:
            return lambda rows: None
        group = self._grouper(frame)
        chain_codes = frame.ndarray("chain_code")
        type_codes = frame.ndarray("type_code")
        eos = CHAIN_CODES[ChainId.EOS]

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            chain, types = block_columns(rows, chain_codes, type_codes)
            mask = (chain == eos) & (types == transfer_code)
            if mask.any():
                group(matched_rows(rows, mask))

        return consume

    def config_signature(self) -> tuple:
        return (type(self).__qualname__, self.name, self.contract)

    def export_state(self) -> Dict:
        """Flatten the per-transaction transfer groups into parallel columns.

        Transfers are stored in group order with per-group lengths, so the
        restore rebuilds every group's transfer order — which the claim
        matching in :func:`_claims_from_groups` depends on.
        """
        groups = self._groups
        flat = [transfer for transfers in groups.values() for transfer in transfers]
        if flat:
            senders, amounts, timestamps, currencies, deposits, inlines = zip(*flat)
        else:
            senders = amounts = timestamps = currencies = deposits = inlines = ()
        return {
            "groups": {
                "ids": pack_strings(groups.keys()),
                "sizes": array("q", map(len, groups.values())),
                "senders": pack_strings(list(senders)),
                "amounts": array("d", amounts),
                "timestamps": array("d", timestamps),
                "currencies": pack_strings(list(currencies)),
                "deposits": array("b", deposits),
                "inlines": array("b", inlines),
            }
        }

    def restore_state(self, payload: Dict) -> None:
        table = payload["groups"]
        transfers = list(
            zip(
                unpack_strings(table["senders"]),
                table["amounts"],
                table["timestamps"],
                unpack_strings(table["currencies"]),
                map(bool, table["deposits"]),
                map(bool, table["inlines"]),
            )
        )
        groups = self._groups
        position = 0
        for transaction_id, size in zip(unpack_strings(table["ids"]), table["sizes"]):
            chunk = transfers[position : position + size]
            position += size
            existing = groups.get(transaction_id)
            if existing is None:
                groups[transaction_id] = chunk
            else:
                existing.extend(chunk)

    def finalize(self) -> List[BoomerangClaim]:
        return _claims_from_groups(self._groups, self.contract)


class AirdropAccumulator(BoomerangClaimsAccumulator):
    """Single-pass §4.1 airdrop statistics (claims + traffic multiplier)."""

    name = "airdrop"

    def __init__(self, launch_date: str = "2019-11-01", contract: str = EIDOS_CONTRACT):
        super().__init__(contract)
        self.launch_timestamp = timestamp_from_iso(launch_date)

    def _reset(self, frame: TxFrame) -> None:
        super()._reset(frame)
        # [count, min_ts, max_ts] for the pre- and post-launch EOS slices.
        self._pre = [0, None, None]
        self._post = [0, None, None]
        # Post-launch rows of *any* type per transaction id: a claim
        # transaction may carry non-transfer actions, and the paper's share
        # counts those rows too.
        self._post_counts: Dict[str, int] = {}

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized pre/post-launch statistics over every EOS row.

        Counts and timestamp bounds are mask reductions; only the
        transaction-id tally of post-launch rows and the transfer grouping
        (both object-column work) stay per-row, over their masked slices.
        The statistics cover every EOS row, so this cannot reuse the
        parent's transfers-only pre-filter.
        """
        self._reset(frame)
        group = self._grouper(frame)
        pre = self._pre
        post = self._post
        post_counts = self._post_counts
        chain_codes = frame.ndarray("chain_code")
        timestamps = frame.ndarray("timestamp")
        type_codes = frame.ndarray("type_code")
        transaction_ids = frame.transaction_id
        eos = CHAIN_CODES[ChainId.EOS]
        transfer_code = frame.types.code("transfer")
        transfer = -1 if transfer_code is None else transfer_code
        launch = self.launch_timestamp

        def tally(side, count: int, block_ts) -> None:
            side[0] += count
            low = float(block_ts.min())
            high = float(block_ts.max())
            if side[1] is None or low < side[1]:
                side[1] = low
            if side[2] is None or high > side[2]:
                side[2] = high

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            chain, block_ts, types = block_columns(
                rows, chain_codes, timestamps, type_codes
            )
            eos_mask = chain == eos
            if not eos_mask.any():
                return
            eos_ts = block_ts[eos_mask]
            post_mask = eos_ts >= launch
            post_count = int(post_mask.sum())
            pre_count = len(eos_ts) - post_count
            if pre_count:
                tally(pre, pre_count, eos_ts[~post_mask])
            if post_count:
                tally(post, post_count, eos_ts[post_mask])
                post_rows = matched_rows(rows, eos_mask)[post_mask]
                get = post_counts.get
                for transaction_id in map(
                    transaction_ids.__getitem__, post_rows.tolist()
                ):
                    post_counts[transaction_id] = get(transaction_id, 0) + 1
            transfer_mask = eos_mask & (types == transfer)
            if transfer_mask.any():
                group(matched_rows(rows, transfer_mask))

        return consume

    def config_signature(self) -> tuple:
        return (type(self).__qualname__, self.name, self.contract, self.launch_timestamp)

    def export_state(self) -> Dict:
        payload = super().export_state()
        payload["pre"] = list(self._pre)
        payload["post"] = list(self._post)
        # The per-transaction post-launch row tally is transaction-id keyed
        # (large); it packs like any other string table.
        payload["post_counts"] = pack_str_table(self._post_counts)
        return payload

    def restore_state(self, payload: Dict) -> None:
        super().restore_state(payload)
        for mine, theirs in (
            (self._pre, payload["pre"]),
            (self._post, payload["post"]),
        ):
            mine[0] += theirs[0]
            if theirs[1] is not None:
                if mine[1] is None or theirs[1] < mine[1]:
                    mine[1] = theirs[1]
                if mine[2] is None or theirs[2] > mine[2]:
                    mine[2] = theirs[2]
        restore_str_table(self._post_counts, payload["post_counts"])

    def finalize(self) -> AirdropReport:
        claims = _claims_from_groups(self._groups, self.contract)
        launch = self.launch_timestamp
        post_counts = self._post_counts
        post_launch_claim_actions = sum(
            post_counts.get(claim.transaction_id, 0) for claim in claims
        )

        def rate(side: List) -> float:
            count, low, high = side
            if not count:
                return 0.0
            duration = high - low
            if duration <= 0:
                return float(count)
            return count / duration

        pre_rate = rate(self._pre)
        post_rate = rate(self._post)
        multiplier = post_rate / pre_rate if pre_rate > 0 else float("inf")
        post_actions = self._post[0]
        return AirdropReport(
            launch_timestamp=launch,
            claim_count=len(claims),
            total_actions=self._pre[0] + post_actions,
            post_launch_actions=post_actions,
            boomerang_action_share_post_launch=(
                post_launch_claim_actions / post_actions if post_actions else 0.0
            ),
            traffic_multiplier=multiplier,
            unique_claimers=len({claim.claimer for claim in claims}),
        )


class CongestionReport(NamedTuple):
    """Congestion-mode impact of the airdrop on the resource market."""

    samples: int
    congested_samples: int
    congested_share: float
    peak_cpu_price: float
    baseline_cpu_price: float

    @property
    def cpu_price_increase(self) -> float:
        """Peak price relative to baseline (the paper reports a 10,000 % spike)."""
        if self.baseline_cpu_price <= 0:
            return float("inf")
        return self.peak_cpu_price / self.baseline_cpu_price


def analyze_congestion(
    history: Sequence[CongestionSample], launch_timestamp: float
) -> CongestionReport:
    """Summarise the resource-market history around the airdrop launch."""
    if not history:
        return CongestionReport(0, 0, 0.0, 0.0, 0.0)
    before = [sample for sample in history if sample.timestamp < launch_timestamp]
    after = [sample for sample in history if sample.timestamp >= launch_timestamp]
    baseline = (
        sum(sample.cpu_price for sample in before) / len(before) if before else 0.0
    )
    peak = max((sample.cpu_price for sample in after), default=0.0)
    congested = sum(1 for sample in after if sample.congested)
    return CongestionReport(
        samples=len(history),
        congested_samples=congested,
        congested_share=congested / len(after) if after else 0.0,
        peak_cpu_price=peak,
        baseline_cpu_price=baseline,
    )
