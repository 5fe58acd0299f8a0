"""The name of the scan-kernel backend, for run metadata.

There is one backend.  Every accumulator's ``bind_batch`` is a vectorized
NumPy kernel over zero-copy ndarray views of the columnar frame, and its
row-step ``bind`` is the reference the parity suite compares it against
(``tests/properties/test_kernel_parity.py``) — no switch selects between
them.  What remains here is the name benchmark harnesses record in their
``env`` stanza.
"""

from __future__ import annotations

#: The only backend name.
NUMPY = "numpy"


def active_backend() -> str:
    """The backend every accumulator bind uses: always ``"numpy"``."""
    return NUMPY
