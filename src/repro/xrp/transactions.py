"""XRP transaction types, result codes and the transaction engine.

The XRP ledger defines a fixed set of transaction types (Figure 1's XRP
column).  A transaction that fails validation *after* being included in a
ledger is still recorded — its only effect is the fee deduction — which is
why roughly 10 % of the throughput the paper measures consists of failed
transactions (§3.2).  The two failure codes the paper highlights are
``PATH_DRY`` (Payment: no usable path/liquidity) and ``tecUNFUNDED_OFFER``
(OfferCreate: the creator does not hold the funds promised).
"""

from __future__ import annotations

import enum
from typing import Any, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.common.errors import ChainError
from repro.common.records import EMPTY_MAPPING
from repro.xrp.accounts import XrpAccountRegistry, is_special_address
from repro.xrp.amounts import STANDARD_FEE_DROPS, IouAmount, drops_to_xrp
from repro.xrp.orderbook import ExchangeExecution, OrderBook
from repro.xrp.trustlines import TrustLineTable


class TransactionType(str, enum.Enum):
    """Transaction types observed in the paper's dataset (Figure 1)."""

    PAYMENT = "Payment"
    OFFER_CREATE = "OfferCreate"
    OFFER_CANCEL = "OfferCancel"
    TRUST_SET = "TrustSet"
    ACCOUNT_SET = "AccountSet"
    SIGNER_LIST_SET = "SignerListSet"
    SET_REGULAR_KEY = "SetRegularKey"
    ESCROW_CREATE = "EscrowCreate"
    ESCROW_FINISH = "EscrowFinish"
    ESCROW_CANCEL = "EscrowCancel"
    PAYMENT_CHANNEL_CREATE = "PaymentChannelCreate"
    PAYMENT_CHANNEL_CLAIM = "PaymentChannelClaim"
    ENABLE_AMENDMENT = "EnableAmendment"


class ResultCode(str, enum.Enum):
    """Engine result codes (successful and recorded-failure codes)."""

    SUCCESS = "tesSUCCESS"
    PATH_DRY = "tecPATH_DRY"
    UNFUNDED_OFFER = "tecUNFUNDED_OFFER"
    UNFUNDED_PAYMENT = "tecUNFUNDED_PAYMENT"
    NO_DST = "tecNO_DST"
    NO_LINE = "tecNO_LINE"
    NO_ENTRY = "tecNO_ENTRY"
    BAD_AMOUNT = "temBAD_AMOUNT"

    @property
    def is_success(self) -> bool:
        return self is ResultCode.SUCCESS


class XrpTransaction(NamedTuple):
    """One submitted XRP ledger transaction (a tuple: one is built per row)."""

    type: TransactionType
    account: str
    destination: str = ""
    amount: Optional[IouAmount] = None
    taker_gets: Optional[IouAmount] = None
    taker_pays: Optional[IouAmount] = None
    offer_sequence: int = 0
    limit: Optional[IouAmount] = None
    destination_tag: Optional[int] = None
    fee_drops: int = STANDARD_FEE_DROPS
    finish_after: float = 0.0
    escrow_id: int = 0
    data: Mapping[str, Any] = EMPTY_MAPPING


class AppliedTransaction(NamedTuple):
    """Outcome of applying a transaction to the ledger state (one per row)."""

    transaction: XrpTransaction
    result: ResultCode
    fee_xrp: float
    executions: Sequence[ExchangeExecution] = ()
    offer_id: int = 0
    delivered: Optional[IouAmount] = None

    @property
    def success(self) -> bool:
        return self.result.is_success


class XrpTransactionEngine:
    """Applies transactions to the ledger state (accounts, lines, DEX)."""

    def __init__(
        self,
        accounts: XrpAccountRegistry,
        trustlines: Optional[TrustLineTable] = None,
        orderbook: Optional[OrderBook] = None,
    ) -> None:
        self.accounts = accounts
        # ``is None`` rather than ``or``: an empty table/book is falsy (it
        # defines __len__) but must still be shared with the caller.
        self.trustlines = trustlines if trustlines is not None else TrustLineTable()
        self.orderbook = orderbook if orderbook is not None else OrderBook()
        self._next_escrow_id = 1
        self.fees_burned_xrp = 0.0

    # -- helpers -----------------------------------------------------------------
    def _charge_fee(self, transaction: XrpTransaction) -> float:
        """Deduct the fee from the sender; fees are burned, not redistributed."""
        fee_xrp = drops_to_xrp(transaction.fee_drops)
        account = self.accounts.get(transaction.account)
        # Fees are always charged, even for failed transactions; they may dip
        # into the reserve rather than fail.
        account.debit_xrp(min(fee_xrp, account.xrp_balance), respect_reserve=False)
        self.fees_burned_xrp += fee_xrp
        return fee_xrp

    # -- dispatch ---------------------------------------------------------------
    def apply(self, transaction: XrpTransaction, timestamp: float = 0.0) -> AppliedTransaction:
        """Apply one transaction, returning its recorded outcome."""
        if transaction.account not in self.accounts:
            raise ChainError(f"sender account does not exist: {transaction.account}")
        fee_xrp = self._charge_fee(transaction)
        handler = self._HANDLERS.get(transaction.type, XrpTransactionEngine._apply_noop)
        result, executions, offer_id, delivered = handler(self, transaction, timestamp)
        self.accounts.get(transaction.account).next_sequence()
        return AppliedTransaction(transaction, result, fee_xrp, executions, offer_id, delivered)

    _NOOP_RESULT: Tuple[ResultCode, list, int, Optional[IouAmount]] = (
        ResultCode.SUCCESS,
        [],
        0,
        None,
    )

    def _apply_noop(self, transaction: XrpTransaction, timestamp: float):
        """Account settings transactions succeed without moving value."""
        return self._NOOP_RESULT

    # -- Payment -----------------------------------------------------------------
    def _apply_payment(self, transaction: XrpTransaction, timestamp: float):
        amount = transaction.amount
        if amount is None or amount.value <= 0:
            return ResultCode.BAD_AMOUNT, [], 0, None
        destination = transaction.destination
        sender = self.accounts.get(transaction.account)
        if amount.is_native:
            if destination not in self.accounts and not is_special_address(destination):
                return ResultCode.NO_DST, [], 0, None
            if sender.spendable_xrp + 1e-9 < amount.value:
                return ResultCode.UNFUNDED_PAYMENT, [], 0, None
            sender.debit_xrp(amount.value)
            if destination in self.accounts:
                self.accounts.get(destination).credit_xrp(amount.value)
            # XRP sent to special addresses is permanently lost (§2.3.3).
            return ResultCode.SUCCESS, [], 0, amount
        # IOU payment: must ride trust lines end to end.
        if destination not in self.accounts:
            return ResultCode.NO_DST, [], 0, None
        if not self.trustlines.can_send(transaction.account, amount):
            return ResultCode.PATH_DRY, [], 0, None
        if not self.trustlines.can_receive(destination, amount):
            return ResultCode.PATH_DRY, [], 0, None
        self.trustlines.transfer(transaction.account, destination, amount)
        return ResultCode.SUCCESS, [], 0, amount

    # -- OfferCreate / OfferCancel --------------------------------------------------
    def _offer_is_funded(self, owner: str, taker_gets: IouAmount) -> bool:
        if taker_gets.is_native:
            return self.accounts.get(owner).spendable_xrp + 1e-9 >= taker_gets.value
        return self.trustlines.can_send(owner, taker_gets)

    def _apply_offer_create(self, transaction: XrpTransaction, timestamp: float):
        taker_gets = transaction.taker_gets
        taker_pays = transaction.taker_pays
        if taker_gets is None or taker_pays is None:
            return ResultCode.BAD_AMOUNT, [], 0, None
        if not self._offer_is_funded(transaction.account, taker_gets):
            return ResultCode.UNFUNDED_OFFER, [], 0, None
        offer, executions = self.orderbook.place(
            transaction.account, taker_gets, taker_pays, timestamp
        )
        for execution in executions:
            self._settle_execution(execution)
        return ResultCode.SUCCESS, executions, offer.offer_id, None

    def _settle_execution(self, execution: ExchangeExecution) -> None:
        """Move balances for one executed exchange (best-effort settlement)."""
        for sender, receiver, amount in (
            (execution.seller, execution.buyer, execution.sold),
            (execution.buyer, execution.seller, execution.bought),
        ):
            try:
                if amount.is_native:
                    self.accounts.get(sender).debit_xrp(amount.value)
                    self.accounts.get(receiver).credit_xrp(amount.value)
                else:
                    self.trustlines.credit(receiver, amount)
                    if sender != amount.issuer and self.trustlines.has_line(
                        sender, amount.currency, amount.issuer
                    ):
                        line = self.trustlines.get(sender, amount.currency, amount.issuer)
                        line.balance = max(0.0, line.balance - amount.value)
            except ChainError:
                # Settlement shortfalls do not unwind the executed exchange in
                # the simulator; the analysis only relies on execution records.
                continue

    def _apply_offer_cancel(self, transaction: XrpTransaction, timestamp: float):
        try:
            self.orderbook.cancel(transaction.offer_sequence, transaction.account)
        except ChainError:
            return ResultCode.NO_ENTRY, [], 0, None
        return ResultCode.SUCCESS, [], 0, None

    # -- TrustSet -----------------------------------------------------------------
    def _apply_trust_set(self, transaction: XrpTransaction, timestamp: float):
        limit = transaction.limit
        if limit is None or limit.is_native:
            return ResultCode.BAD_AMOUNT, [], 0, None
        try:
            self.trustlines.set_trust(
                transaction.account, limit.currency, limit.issuer, limit.value
            )
        except ChainError:
            return ResultCode.NO_LINE, [], 0, None
        return ResultCode.SUCCESS, [], 0, None

    # -- Escrows ------------------------------------------------------------------
    def _apply_escrow_create(self, transaction: XrpTransaction, timestamp: float):
        """Lock the amount away under the next escrow id.

        No workload finishes or cancels an escrow, so the locked amount is
        simply debited; the id numbers the row's ``offer_id``.
        """
        amount = transaction.amount
        if amount is None or not amount.is_native or amount.value <= 0:
            return ResultCode.BAD_AMOUNT, [], 0, None
        sender = self.accounts.get(transaction.account)
        if sender.spendable_xrp + 1e-9 < amount.value:
            return ResultCode.UNFUNDED_PAYMENT, [], 0, None
        sender.debit_xrp(amount.value)
        escrow_id = self._next_escrow_id
        self._next_escrow_id += 1
        return ResultCode.SUCCESS, [], escrow_id, None

    #: Handler per transaction type; every other type is a no-op that succeeds.
    _HANDLERS = {
        TransactionType.PAYMENT: _apply_payment,
        TransactionType.OFFER_CREATE: _apply_offer_create,
        TransactionType.OFFER_CANCEL: _apply_offer_cancel,
        TransactionType.TRUST_SET: _apply_trust_set,
        TransactionType.ESCROW_CREATE: _apply_escrow_create,
    }
