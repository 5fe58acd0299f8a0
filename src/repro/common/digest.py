"""``blake2b`` and ``sha256`` from CPython's built-in hash modules.

The store's key chain (:func:`repro.collection.store.chain_link`) and the
config part of every state-cache key
(:func:`repro.analysis.engine.config_digest`) are the only digests the
package computes.  ``import hashlib`` would load ``_hashlib`` and with it
OpenSSL's libcrypto, a sixth of a warm report's peak RSS (measured in
``docs/architecture.md``), for two constructors CPython also builds in.
The built-ins give the same digests bit for bit.  ``_sha256`` became
``_sha2`` in CPython 3.12; ``hashlib`` is the fallback only for a build
without these modules.
"""

from __future__ import annotations

try:
    from _blake2 import blake2b

    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        from _sha256 import sha256  # CPython <= 3.11
except ImportError:
    from hashlib import blake2b, sha256

__all__ = ["blake2b", "sha256"]
