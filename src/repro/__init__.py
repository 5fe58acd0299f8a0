"""repro: reproduction of "Revisiting Transactional Statistics of
High-scalability Blockchains" (Perez, Xu, Livshits -- IMC 2020).

The library is organised in four layers:

* chain substrates (:mod:`repro.eos`, :mod:`repro.tezos`, :mod:`repro.xrp`)
  simulate the three studied blockchains and generate calibrated workloads;
* the data-collection layer (:mod:`repro.collection`) crawls blocks from the
  simulated RPC endpoints, stores them gzip-compressed and characterises the
  dataset;
* the analysis layer (:mod:`repro.analysis`) classifies transactions and
  computes every table and figure in the paper's evaluation;
* scenario configurations (:mod:`repro.scenarios`) tie the three workloads
  together at test, benchmark and paper scale.

Packages re-export nothing: import a name from the module that defines it
(``from repro.analysis.report import full_report``), so a process loads only
the modules it runs.
"""
