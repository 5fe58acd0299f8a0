"""Exception hierarchy shared across the library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A scenario, workload or component was configured inconsistently."""


class ChainError(ReproError):
    """A chain simulator rejected an operation (invalid block, bad account...)."""


#: JSON-RPC error codes an endpoint answers with besides the HTTP-style ones.
METHOD_NOT_FOUND = -32601
INTERNAL_ERROR = -32603


class RpcError(ReproError):
    """An RPC endpoint returned an error response."""

    def __init__(self, code: int, message: str):
        super().__init__(f"RPC error {code}: {message}")
        self.code = code
        self.message = message


class RateLimitExceeded(RpcError):
    """The endpoint's rate limit was hit; the caller should back off."""

    def __init__(self, retry_after: float = 0.0):
        super().__init__(429, "rate limit exceeded")
        self.retry_after = retry_after


class EndpointUnavailable(RpcError):
    """The endpoint is temporarily unreachable (simulated outage)."""

    def __init__(self, message: str = "endpoint unavailable"):
        super().__init__(503, message)


class BlockNotFound(RpcError):
    """The requested block height does not exist on the serving node."""

    def __init__(self, height: int):
        super().__init__(404, f"block {height} not found")
        self.height = height


class CollectionError(ReproError):
    """The crawler failed to make progress (all endpoints exhausted, ...), or
    a persisted document failed its reader's check ``kind`` (an fsck issue
    kind such as ``manifest_version``; empty for any other failure)."""

    def __init__(self, message: str = "", kind: str = ""):
        super().__init__(message)
        self.kind = kind


class AnalysisError(ReproError):
    """An analysis stage was asked to process inconsistent data."""
