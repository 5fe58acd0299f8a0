"""Statistics mode selection: exact accumulators vs bounded-memory sketches.

The analysis layer computes the paper's distinct-count, top-k and
distribution statistics with exact state by default: a run counter over
the transaction ids, full ``(account, type)`` tallies, every successful
payment value.  That state is O(distinct accounts + values).

``REPRO_STATS=sketch`` switches the affected accumulators to bounded-memory
streaming sketches (:mod:`repro.common.sketches`):

* **exact** (default) — the reference behaviour; every figure is computed
  from complete per-key state and results are exact;
* **sketch** — distinct transaction counts come from a HyperLogLog,
  top-account tables from space-saving heavy-hitter summaries, and the
  value distribution from a relative-error quantile sketch.  Accumulator
  state is O(1) in the row count; results carry the documented error
  bounds (see ``docs/architecture.md``).  Every sketch stays *exact* below
  its capacity, so small workloads produce identical figures in both
  modes.

Selection order:

1. an in-process override installed with :func:`use_mode` (what the CLI's
   ``--stats`` and the differential tests use);
2. the ``REPRO_STATS`` environment variable (``exact`` or ``sketch``);
3. ``exact``.

Accumulators resolve the mode **at construction** and carry it in their
:meth:`~repro.analysis.engine.Accumulator.config_signature`, so a
checkpoint written in one mode can never be silently merged into a pass
running in the other — the signature mismatch forces a full rescan.
Factories that ship accumulator construction to worker processes
(:mod:`repro.analysis.parallel`) pin the parent's resolved mode into the
factory arguments, so an in-process override survives the process hop.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.common.errors import ReproError

#: Canonical mode names.
EXACT = "exact"
SKETCH = "sketch"

_MODES = (EXACT, SKETCH)

#: Environment variable selecting the mode (``exact`` or ``sketch``).
ENV_VAR = "REPRO_STATS"

#: In-process override; takes precedence over the environment variable.
_override: Optional[str] = None


def _validated(name: str, source: str) -> str:
    value = name.strip().lower()
    if value not in _MODES:
        raise ReproError(
            f"unknown stats mode {name!r} from {source}; "
            f"expected one of {', '.join(_MODES)}"
        )
    return value


def active_mode() -> str:
    """The mode the next accumulator construction will resolve."""
    if _override is not None:
        return _override
    env = os.environ.get(ENV_VAR)
    if env:
        return _validated(env, f"${ENV_VAR}")
    return EXACT


def resolve(mode: Optional[str]) -> str:
    """Validate an explicit mode, or resolve the active one for ``None``.

    This is the constructor-side entry point: accumulators call it with
    their ``stats`` argument so an explicitly pinned mode (a factory shipped
    to a worker process) wins over the worker's own environment.
    """
    if mode is None:
        return active_mode()
    return _validated(mode, "stats argument")


@contextmanager
def use_mode(name: str) -> Iterator[str]:
    """Context manager pinning the stats mode for a ``with`` block."""
    global _override
    previous = _override
    _override = _validated(name, "use_mode()")
    try:
        yield _override
    finally:
        _override = previous
