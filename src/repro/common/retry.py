"""Backoff policy for the data-collection crawler.

The crawler in the paper ran for weeks against rate-limited public
endpoints; transient failures and throttling responses were routine.  The
policy here is deliberately free of real ``time.sleep`` calls — the crawler
advances a :class:`~repro.common.clock.SimulationClock` by the delay the
policy returns, keeping everything deterministic and fast under test.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with an upper bound.

    ``delay(attempt)`` returns the pause before retry number ``attempt``
    (0-based): ``base_delay * multiplier ** attempt``, capped at
    ``max_delay``.
    """

    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        if self.base_delay <= 0:
            raise ValueError("base_delay must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")

    def delay(self, attempt: int) -> float:
        """Delay in seconds before retry ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(self.base_delay * (self.multiplier ** attempt), self.max_delay)
