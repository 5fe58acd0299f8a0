"""Tezos substrate: LPoS chain simulator, governance, RPC and workload.

The paper's Tezos measurement depends on the following behaviours:

* **Liquid Proof-of-Stake baking** — any account holding at least one roll
  (10,000 XTZ) can bake; every block must carry at least 32 endorsement
  operations before it is accepted (:mod:`repro.tezos.baking`).
* **Account model** — implicit (``tz1...``) accounts that can bake, and
  originated (``KT1...``) accounts that can act as contracts and delegate
  (:mod:`repro.tezos.accounts`).
* **Operation kinds** — endorsements, transactions, originations, reveals,
  delegations, activations, ballots, proposals
  (:mod:`repro.tezos.operations`).
* **On-chain governance** — the four voting periods and the Babylon 2.0
  amendment timeline analysed in §4.2 (:mod:`repro.tezos.governance`).
* **RPC and workload** — a node RPC endpoint serving blocks, plus a
  calibrated workload where ~82 % of operations are endorsements
  (:mod:`repro.tezos.rpc`, :mod:`repro.tezos.workload`).
"""
