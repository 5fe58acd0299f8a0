"""Token-bucket rate limiting.

The paper shortlists 6 of 32 advertised EOS endpoints because only those had
"a generous rate limit with stable latency and throughput".  Every simulated
endpoint therefore holds one :class:`TokenBucket` sized by its profile and
answers a request that finds the bucket empty with ``RateLimitExceeded``,
whose ``retry_after`` the crawler honours.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import RateLimitExceeded


@dataclass
class TokenBucket:
    """Classic token-bucket limiter driven by an external (virtual) clock.

    Parameters
    ----------
    rate:
        Tokens replenished per second.
    capacity:
        Maximum number of tokens the bucket can hold (burst size).
    """

    rate: float
    capacity: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        self._tokens = float(self.capacity)
        self._last_refill = 0.0

    @property
    def tokens(self) -> float:
        """Tokens currently available (as of the last observed time)."""
        return self._tokens

    def _refill(self, now: float) -> None:
        if now < self._last_refill:
            # The virtual clock never goes backwards; be defensive anyway.
            self._last_refill = now
            return
        elapsed = now - self._last_refill
        self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
        self._last_refill = now

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        """Consume ``tokens`` if available, returning whether it succeeded."""
        self._refill(now)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def acquire_or_raise(self, now: float, tokens: float = 1.0) -> None:
        """Consume ``tokens`` or raise :class:`RateLimitExceeded`.

        The exception's ``retry_after`` tells the caller how long (in virtual
        seconds) until enough tokens will have accumulated.
        """
        if self.try_acquire(now, tokens):
            return
        deficit = tokens - self._tokens
        raise RateLimitExceeded(retry_after=deficit / self.rate)
