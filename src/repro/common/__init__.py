"""Shared substrate used by every chain simulator and the analysis pipeline.

The common package provides the vocabulary the rest of the library speaks:

* :mod:`repro.common.records` — chain-agnostic block / transaction records.
* :mod:`repro.common.clock` — a deterministic simulation clock.
* :mod:`repro.common.rng` — seeded random-number helpers (zipf, categorical,
  log-normal) used by the workload generators.
* :mod:`repro.common.ratelimit` — token-bucket rate limiting, used to model
  the public endpoints' rate limits.
* :mod:`repro.common.retry` — the crawler's exponential backoff policy.
* :mod:`repro.common.compression` — gzip size accounting for the block store.
* :mod:`repro.common.durable` — the one file-commit protocol and the JSON
  decode every persisted document's reader starts from.
* :mod:`repro.common.digest` — ``blake2b`` / ``sha256`` for store and state
  keys, from CPython's built-in hash modules (no OpenSSL).
* :mod:`repro.common.errors` — the exception hierarchy.
"""
