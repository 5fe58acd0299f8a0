"""Deterministic simulation clock.

The paper observes three months of real traffic (2019-10-01 → 2019-12-31).
The simulators replay that window on a virtual clock so the whole pipeline is
deterministic and fast.  Timestamps are plain Unix epoch seconds (UTC); the
helpers below convert between epoch seconds and ISO dates without touching
the wall clock.
"""

from __future__ import annotations

import calendar
import datetime as _dt
from dataclasses import dataclass, field
from functools import lru_cache

SECONDS_PER_DAY = 86_400
SECONDS_PER_HOUR = 3_600


@lru_cache(maxsize=1024)
def timestamp_from_iso(iso_date: str) -> float:
    """Convert ``YYYY-MM-DD`` or ``YYYY-MM-DDTHH:MM:SS`` to epoch seconds (UTC)."""
    if "T" in iso_date:
        parsed = _dt.datetime.strptime(iso_date, "%Y-%m-%dT%H:%M:%S")
    else:
        parsed = _dt.datetime.strptime(iso_date, "%Y-%m-%d")
    return float(calendar.timegm(parsed.timetuple()))


def iso_from_timestamp(timestamp: float) -> str:
    """Render epoch seconds as ``YYYY-MM-DDTHH:MM:SS`` (UTC)."""
    parsed = _dt.datetime.utcfromtimestamp(timestamp)
    return parsed.strftime("%Y-%m-%dT%H:%M:%S")


def date_from_timestamp(timestamp: float) -> str:
    """Render epoch seconds as ``YYYY-MM-DD`` (UTC)."""
    return iso_from_timestamp(timestamp)[:10]


@dataclass
class SimulationClock:
    """A monotonically advancing virtual clock.

    Parameters
    ----------
    start:
        Initial time, either epoch seconds or an ISO date string.
    """

    start: float = 0.0
    _now: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if isinstance(self.start, str):
            self.start = timestamp_from_iso(self.start)
        self._now = float(self.start)

    @property
    def now(self) -> float:
        """Current virtual time in epoch seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError("clock cannot move backwards")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp`` (no-op if already past it)."""
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    def elapsed(self) -> float:
        """Seconds elapsed since the clock was created."""
        return self._now - float(self.start)
