"""Value-flow aggregation on the XRP ledger (Figure 12).

Figure 12 is a flow diagram from sender clusters through currencies to
receiver clusters, where the width of each band is the XRP-denominated value
moved by successful Payment transactions.  The aggregation needs the account
clusterer (usernames / parents) and the exchange-rate oracle (to convert IOU
amounts into XRP and to drop valueless tokens).  It is implemented as a
single-pass accumulator: cluster labels and exchange rates are cached per
interned account/currency code, so the per-row cost inside the engine's
shared pass is a few dict lookups.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Dict, List, NamedTuple, Tuple

from repro.common.columns import CHAIN_CODES, TxFrame
from repro.common.records import XRP_CURRENCY, ChainId
from repro.analysis.clustering import AccountClusterer
from repro.analysis.engine import Accumulator, BatchStep, FigureSpec, RowIndices
from repro.analysis.vectorized import block_columns, matched_rows
from repro.common.statecodec import pack_strings, unpack_strings
from repro.analysis.value import ExchangeRateOracle


class ValueFlow(NamedTuple):
    """One aggregated band of the Figure 12 diagram."""

    sender_cluster: str
    receiver_cluster: str
    currency: str
    xrp_value: float
    payment_count: int


class ValueFlowReport(NamedTuple):
    """The full Figure 12 aggregation."""

    flows: List[ValueFlow]
    total_xrp_value: float
    by_sender: Dict[str, float]
    by_receiver: Dict[str, float]
    by_currency: Dict[str, float]
    currency_face_value: Dict[str, float]

    def top_senders(self, limit: int = 10) -> List[Tuple[str, float]]:
        return sorted(self.by_sender.items(), key=lambda item: -item[1])[:limit]

    def top_receivers(self, limit: int = 10) -> List[Tuple[str, float]]:
        return sorted(self.by_receiver.items(), key=lambda item: -item[1])[:limit]

    def top_currencies(self, limit: int = 10) -> List[Tuple[str, float]]:
        return sorted(self.by_currency.items(), key=lambda item: -item[1])[:limit]

    def sender_share(self, cluster: str) -> float:
        if self.total_xrp_value <= 0:
            return 0.0
        return self.by_sender.get(cluster, 0.0) / self.total_xrp_value

    def top_sender_concentration(self, top_n: int = 10) -> float:
        """Share of total value sent by the ``top_n`` sender clusters (~51 %)."""
        if self.total_xrp_value <= 0:
            return 0.0
        top = sum(value for _, value in self.top_senders(top_n))
        return top / self.total_xrp_value


class ValueFlowAccumulator(Accumulator):
    """Single-pass Figure 12 aggregation of successful Payment value."""

    name = "value_flows"

    def __init__(
        self,
        clusterer: AccountClusterer,
        oracle: ExchangeRateOracle,
        include_valueless: bool = False,
    ):
        self.clusterer = clusterer
        self.oracle = oracle
        self.include_valueless = include_valueless

    def _reset(self, frame: TxFrame) -> None:
        self._flows = defaultdict(lambda: [0.0, 0])
        self._by_sender = defaultdict(float)
        self._by_receiver = defaultdict(float)
        self._by_currency = defaultdict(float)
        self._face_value = defaultdict(float)
        self._totals = [0.0]

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Boolean-mask kernel in front of the ordered per-row aggregation.

        The prefilter (chain, type, success, positive amount) is one mask
        per block; the surviving payments are then summed one row at a
        time **in row order**, which keeps the Figure 12 float sums
        bit-for-bit those of a serial scan.  Exchange rates and cluster
        labels resolve once per interned code.
        """
        self._reset(frame)
        flows = self._flows
        by_sender = self._by_sender
        by_receiver = self._by_receiver
        by_currency = self._by_currency
        face_value = self._face_value
        totals = self._totals
        chain_codes = frame.ndarray("chain_code")
        type_codes = frame.ndarray("type_code")
        success = frame.ndarray("success")
        amounts = frame.ndarray("amount")
        columns = [
            frame.ndarray(name)
            for name in ("currency_code", "issuer_code", "sender_code", "receiver_code")
        ]
        currency_values = frame.currencies.values
        account_values = frame.accounts.values
        xrp = CHAIN_CODES[ChainId.XRP]
        payment_code = frame.types.code("Payment")
        payment = -1 if payment_code is None else payment_code
        include_valueless = self.include_valueless
        rate_of = self.oracle.rate
        cluster_of = self.clusterer.cluster_of
        rate_cache: Dict[Tuple[int, int], float] = {}
        cluster_cache: Dict[int, str] = {}

        def cluster(code: int) -> str:
            label = cluster_cache.get(code)
            if label is None:
                label = cluster_cache[code] = cluster_of(account_values[code])
            return label

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            chain, types, ok, block_amounts = block_columns(
                rows, chain_codes, type_codes, success, amounts
            )
            mask = (
                (chain == xrp)
                & (types == payment)
                & (ok != 0)
                & (block_amounts > 0)
            )
            if not mask.any():
                return
            matched = matched_rows(rows, mask)
            for amount, currency_code, issuer_code, sender_code, receiver_code in zip(
                block_amounts[mask].tolist(), *(column[matched].tolist() for column in columns)
            ):
                key = (currency_code, issuer_code)
                rate = rate_cache.get(key)
                if rate is None:
                    rate = rate_cache[key] = rate_of(
                        currency_values[currency_code] or XRP_CURRENCY,
                        account_values[issuer_code],
                    )
                if rate <= 0 and not include_valueless:
                    continue
                sender_cluster = cluster(sender_code)
                receiver_cluster = cluster(receiver_code)
                currency = currency_values[currency_code] or XRP_CURRENCY
                xrp_value = amount * rate
                flow = flows[(sender_cluster, receiver_cluster, currency)]
                flow[0] += xrp_value
                flow[1] += 1
                by_sender[sender_cluster] += xrp_value
                by_receiver[receiver_cluster] += xrp_value
                by_currency[currency] += xrp_value
                face_value[currency] += amount
                totals[0] += xrp_value

        return consume

    def config_signature(self) -> tuple:
        return (
            type(self).__qualname__,
            self.name,
            self.include_valueless,
            self.oracle.signature(),
            self.clusterer.signature(),
        )

    @staticmethod
    def _pack_float_table(table) -> Dict:
        return {"keys": pack_strings(table.keys()), "values": array("d", table.values())}

    @staticmethod
    def _restore_float_table(target, payload) -> None:
        for key, value in zip(unpack_strings(payload["keys"]), payload["values"]):
            target[key] = target.get(key, 0.0) + value

    def export_state(self) -> Dict:
        flows = self._flows
        keys = list(flows.keys())
        return {
            "flow_senders": pack_strings([key[0] for key in keys]),
            "flow_receivers": pack_strings([key[1] for key in keys]),
            "flow_currencies": pack_strings([key[2] for key in keys]),
            "flow_values": array("d", (entry[0] for entry in flows.values())),
            "flow_counts": array("q", (entry[1] for entry in flows.values())),
            "by_sender": self._pack_float_table(self._by_sender),
            "by_receiver": self._pack_float_table(self._by_receiver),
            "by_currency": self._pack_float_table(self._by_currency),
            "face_value": self._pack_float_table(self._face_value),
            "total": self._totals[0],
        }

    def restore_state(self, payload: Dict) -> None:
        """Fold another range's flow aggregates into this accumulator.

        Counts, keys and their order fold exactly; the XRP-value sums add
        range subtotals, so they can differ from a strictly serial scan by
        floating-point rounding in the last few ulps (see
        ``docs/architecture.md``).  Restoring a *serial* snapshot into
        zeroed state replays the serial sums bit-for-bit (the float64
        columns are exact).
        """
        flows = self._flows
        for sender, receiver, currency, value, count in zip(
            unpack_strings(payload["flow_senders"]),
            unpack_strings(payload["flow_receivers"]),
            unpack_strings(payload["flow_currencies"]),
            payload["flow_values"],
            payload["flow_counts"],
        ):
            flow = flows[(sender, receiver, currency)]
            flow[0] += value
            flow[1] += count
        for name in ("by_sender", "by_receiver", "by_currency", "face_value"):
            self._restore_float_table(getattr(self, "_" + name), payload[name])
        self._totals[0] += payload["total"]

    def finalize(self) -> ValueFlowReport:
        flow_list = [
            ValueFlow(
                sender_cluster=sender,
                receiver_cluster=receiver,
                currency=currency,
                xrp_value=value,
                payment_count=int(count),
            )
            for (sender, receiver, currency), (value, count) in self._flows.items()
        ]
        flow_list.sort(key=lambda flow: -flow.xrp_value)
        return ValueFlowReport(
            flows=flow_list,
            total_xrp_value=self._totals[0],
            by_sender=dict(self._by_sender),
            by_receiver=dict(self._by_receiver),
            by_currency=dict(self._by_currency),
            currency_face_value=dict(self._face_value),
        )


VALUE_FLOWS_FIGURE = FigureSpec(
    name=ValueFlowAccumulator.name,
    chains=(ChainId.XRP,),
    factory=lambda chain, config: (
        ValueFlowAccumulator(config.clusterer, config.oracle)
        if config.oracle is not None and config.clusterer is not None
        else None
    ),
)
