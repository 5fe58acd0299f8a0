"""WhaleEx wash-trading detection (§4.1).

The paper inspects the ``verifytrade2`` actions of the WhaleEx DEX contract
and finds that (1) the top five trading accounts are involved in over 70 % of
all settled trades, (2) each of those accounts is both buyer and seller in
more than 85 % of its trades, and (3) the net balance change of the traded
currencies is essentially zero — the signature of wash trading.  The
detector computes exactly those three statistics; the trade extraction is a
single-pass accumulator (the matching rows are a thin slice of the stream,
so the per-row filter is two integer comparisons inside the shared pass).
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.common.columns import CHAIN_CODES, TxFrame
from repro.common.records import ChainId
from repro.analysis.engine import Accumulator, BatchStep, FigureSpec, RowIndices
from repro.analysis.vectorized import block_columns, matched_rows
from repro.common.statecodec import pack_strings, unpack_strings

#: Default contract and action analysed by the case study.
WHALEEX_CONTRACT = "whaleextrust"
TRADE_ACTION = "verifytrade2"


class TradeObservation(NamedTuple):
    """One settled DEX trade extracted from the record stream."""

    buyer: str
    seller: str
    symbol: str
    amount: float
    timestamp: float

    @property
    def is_self_trade(self) -> bool:
        return self.buyer == self.seller


class WashTradingReport(NamedTuple):
    """Findings of the wash-trading analysis for one DEX contract."""

    contract: str
    trade_count: int
    top_accounts: Tuple[str, ...]
    top_accounts_trade_share: float
    self_trade_share_overall: float
    self_trade_share_by_account: Dict[str, float]
    net_balance_change_by_account: Dict[str, Dict[str, float]]

    def is_wash_trading_suspected(
        self,
        share_threshold: float = 0.5,
        self_trade_threshold: float = 0.5,
    ) -> bool:
        """Paper-style verdict: concentrated traffic dominated by self-trades."""
        if self.trade_count == 0:
            return False
        concentrated = self.top_accounts_trade_share >= share_threshold
        selfish = all(
            share >= self_trade_threshold
            for share in self.self_trade_share_by_account.values()
        )
        return concentrated and selfish


class TradeExtractionAccumulator(Accumulator):
    """Single-pass extraction of one DEX contract's settled trades."""

    name = "dex_trades"

    def __init__(self, contract: str = WHALEEX_CONTRACT):
        self.contract = contract

    def _reset(self, frame: TxFrame) -> None:
        self._trades: List[TradeObservation] = []

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Boolean-mask kernel: only the contract's trade rows pay extraction,
        from the projected ``buyer`` / ``seller`` / ``symbol`` codes."""
        self._reset(frame)
        append = self._trades.append
        contract_code = frame.accounts.code(self.contract)
        trade_code = frame.types.code(TRADE_ACTION)
        if contract_code is None or trade_code is None:
            return lambda rows: None
        chain_codes = frame.ndarray("chain_code")
        receiver_codes = frame.ndarray("receiver_code")
        type_codes = frame.ndarray("type_code")
        projected = frame.projected()
        columns = [frame.ndarray(name) for name in ("sender_code", "currency_code", "amount", "timestamp")]
        columns += [projected["buyer"], projected["seller"], projected["symbol"]]
        strings = frame.meta_strings.values
        account_values = frame.accounts.values
        currency_values = frame.currencies.values
        eos = CHAIN_CODES[ChainId.EOS]

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            chain, receiver, types = block_columns(
                rows, chain_codes, receiver_codes, type_codes
            )
            mask = (chain == eos) & (receiver == contract_code) & (types == trade_code)
            if not mask.any():
                return
            matched = matched_rows(rows, mask)
            for sender, currency, amount, timestamp, buyer, seller, symbol in zip(
                *(column[matched].tolist() for column in columns)
            ):
                sender = str(account_values[sender])
                symbol = strings[symbol] if symbol >= 0 else ""
                buyer = strings[buyer] if buyer >= 0 else sender
                seller = strings[seller] if seller >= 0 else sender
                append(TradeObservation(buyer, seller, currency_values[currency] or symbol, amount, timestamp))

        return consume

    def export_state(self) -> Dict:
        trades = self._trades
        return {
            "buyers": pack_strings([trade.buyer for trade in trades]),
            "sellers": pack_strings([trade.seller for trade in trades]),
            "symbols": pack_strings([trade.symbol for trade in trades]),
            "amounts": array("d", (trade.amount for trade in trades)),
            "timestamps": array("d", (trade.timestamp for trade in trades)),
        }

    def restore_state(self, payload: Dict) -> None:
        self._trades.extend(
            TradeObservation(buyer, seller, symbol, amount, timestamp)
            for buyer, seller, symbol, amount, timestamp in zip(
                unpack_strings(payload["buyers"]),
                unpack_strings(payload["sellers"]),
                unpack_strings(payload["symbols"]),
                payload["amounts"],
                payload["timestamps"],
            )
        )

    def config_signature(self) -> tuple:
        return (type(self).__qualname__, self.name, self.contract)

    def finalize(self) -> List[TradeObservation]:
        return self._trades


class WashTradeAccumulator(TradeExtractionAccumulator):
    """Single-pass §4.1 wash-trading statistics for one DEX contract."""

    name = "wash_trading"

    def __init__(self, contract: str = WHALEEX_CONTRACT, top_n: int = 5):
        super().__init__(contract)
        self.top_n = top_n

    def config_signature(self) -> tuple:
        return (type(self).__qualname__, self.name, self.contract, self.top_n)

    def finalize(self) -> WashTradingReport:
        return _report_from_trades(self._trades, self.contract, self.top_n)


def _wash_json(wash: WashTradingReport) -> Optional[Dict[str, object]]:
    if not wash.trade_count:
        return None
    return {
        "trade_count": wash.trade_count,
        "top_accounts_trade_share": round(wash.top_accounts_trade_share, 6),
        "self_trade_share_overall": round(wash.self_trade_share_overall, 6),
    }


def _wash_text(wash: WashTradingReport) -> List[str]:
    if not wash.trade_count:
        return []
    return [
        f"wash trading: top-5 involved in "
        f"{wash.top_accounts_trade_share:.0%} of {wash.trade_count} trades"
    ]


WASH_TRADING_FIGURE = FigureSpec(
    name=WashTradeAccumulator.name,
    chains=(ChainId.EOS,),
    factory=lambda chain, config: WashTradeAccumulator(),
    to_json=_wash_json,
    render=_wash_text,
)


def _report_from_trades(
    trades: List[TradeObservation], contract: str, top_n: int
) -> WashTradingReport:
    """Compute the §4.1 statistics from an extracted trade list."""
    if not trades:
        return WashTradingReport(
            contract=contract,
            trade_count=0,
            top_accounts=(),
            top_accounts_trade_share=0.0,
            self_trade_share_overall=0.0,
            self_trade_share_by_account={},
            net_balance_change_by_account={},
        )
    involvement: Counter = Counter()
    for trade in trades:
        involvement[trade.buyer] += 1
        if trade.seller != trade.buyer:
            involvement[trade.seller] += 1
    top_accounts = tuple(account for account, _ in involvement.most_common(top_n))
    top_set = set(top_accounts)
    involved_in_top = sum(
        1 for trade in trades if trade.buyer in top_set or trade.seller in top_set
    )
    self_share_overall = sum(1 for trade in trades if trade.is_self_trade) / len(trades)
    self_by_account: Dict[str, float] = {}
    for account in top_accounts:
        own = [
            trade for trade in trades if trade.buyer == account or trade.seller == account
        ]
        if own:
            self_by_account[account] = sum(1 for trade in own if trade.is_self_trade) / len(own)
        else:
            self_by_account[account] = 0.0
    net_changes = net_balance_changes(trades, top_accounts)
    return WashTradingReport(
        contract=contract,
        trade_count=len(trades),
        top_accounts=top_accounts,
        top_accounts_trade_share=involved_in_top / len(trades),
        self_trade_share_overall=self_share_overall,
        self_trade_share_by_account=self_by_account,
        net_balance_change_by_account=net_changes,
    )


def net_balance_changes(
    trades: Iterable[TradeObservation], accounts: Iterable[str]
) -> Dict[str, Dict[str, float]]:
    """Net amount of each traded symbol moved into (+) or out of (-) an account.

    Wash-traded currencies show a net change close to zero: the account buys
    and sells the same quantity of the same token.
    """
    tracked = set(accounts)
    changes: Dict[str, Dict[str, float]] = {account: defaultdict(float) for account in tracked}
    for trade in trades:
        if trade.is_self_trade:
            # Buying from yourself moves nothing.
            continue
        if trade.buyer in tracked:
            changes[trade.buyer][trade.symbol] += trade.amount
        if trade.seller in tracked:
            changes[trade.seller][trade.symbol] -= trade.amount
    return {account: dict(symbols) for account, symbols in changes.items()}


def relative_balance_change(
    net_change: float, gross_traded: float
) -> float:
    """|net| / gross traded volume — the paper's "balance change of over 0.7%"."""
    if gross_traded <= 0:
        return 0.0
    return abs(net_change) / gross_traded
