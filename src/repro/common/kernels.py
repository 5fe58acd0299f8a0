"""The name of the scan-kernel backend, for run metadata.

There is one backend.  Every accumulator has one scan kernel, its
``bind_batch``, over zero-copy ndarray views of the columnar frame.  What
remains here is the name benchmark harnesses record in their ``env``
stanza.
"""

from __future__ import annotations

#: The only backend name.
NUMPY = "numpy"


def active_backend() -> str:
    """The backend every accumulator bind uses: always ``"numpy"``."""
    return NUMPY
