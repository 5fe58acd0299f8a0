"""XRP ledger substrate: accounts, trust lines, DEX, transaction engine.

The paper's XRP measurement depends on:

* **Accounts** identified by base-58 addresses, activated by a parent
  account's payment, optionally tagged with destination tags and usernames
  (:mod:`repro.xrp.accounts`).
* **IOU mechanics** — any account can issue an IOU for any currency code;
  value only flows along trust lines, and an IOU's worth is whatever the
  on-ledger DEX says it exchanges for against XRP
  (:mod:`repro.xrp.amounts`, :mod:`repro.xrp.trustlines`).
* **Decentralised exchange** — OfferCreate / OfferCancel and offer crossing
  (:mod:`repro.xrp.orderbook`).
* **Transaction engine** — Payment, OfferCreate, OfferCancel, TrustSet,
  EscrowCreate, the settings no-ops and the result codes the paper cites
  (``PATH_DRY``, ``tecUNFUNDED_OFFER``); unsuccessful transactions are
  recorded on-ledger with only the fee deducted
  (:mod:`repro.xrp.transactions`).
* **Ledger close loop and RPC** (:mod:`repro.xrp.ledger`,
  :mod:`repro.xrp.rpc`) and the calibrated workload with the Huobi-linked
  offer bots, the payment-spam waves and the self-dealt BTC IOU trades
  (:mod:`repro.xrp.workload`).
"""
