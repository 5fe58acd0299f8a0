"""EOS substrate: DPoS chain simulator, contracts, resources, RPC and workload.

The paper's EOS measurement relies on the following chain behaviours, all of
which are implemented here:

* **DPoS block production** — 21 active block producers, 0.5 s block
  interval, production in rounds of 126 blocks (:mod:`repro.eos.chain`).
* **Accounts and contracts** — 12-character base-32 account names, system
  accounts (``eosio``, ``eosio.token``, ...) with standard actions, and
  user contracts with arbitrary action names (:mod:`repro.eos.accounts`,
  :mod:`repro.eos.contracts`).
* **Resource model** — CPU/NET staking, RAM purchase, and the network-wide
  congestion mode that the EIDOS airdrop triggered in November 2019
  (:mod:`repro.eos.resources`).
* **RPC endpoints** — the ``get_info`` answer and the ``get_block`` method
  name (:mod:`repro.eos.rpc`); rate limits, latency and outages come from
  the endpoint base every chain shares
  (:class:`repro.collection.endpoints.RpcEndpoint`).
* **Calibrated workload** — regenerates the traffic mix of Figures 1, 3a,
  4 and 5, including the WhaleEx wash trading and the EIDOS boomerang
  transactions (:mod:`repro.eos.workload`).
"""
