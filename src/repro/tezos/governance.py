"""Tezos on-chain governance vocabulary and the Babylon 2.0 timeline.

Tezos governance runs in four consecutive periods (§4.2):

1. **Proposal** — bakers submit and upvote amendment proposals; the proposal
   with the most votes advances.
2. **Exploration** — bakers vote ``yay`` / ``nay`` / ``pass``; a dynamic
   quorum and super-majority must be reached.
3. **Testing** — the winning proposal runs on a test network (no votes).
4. **Promotion** — a second ``yay``/``nay``/``pass`` vote; success deploys
   the proposal to the main network.

No row depends on the outcome of a period, so the simulator keeps no
amendment state machine: the Tezos workload emits ballots and proposals as
rows and draws Figure 9's vote events from the Babylon 2.0 timeline shipped
here (proposed 2019-08-02, promoted 2019-10-18), from which the governance
analysis and its benchmark regenerate the three vote-evolution series.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.common.clock import timestamp_from_iso


class VotingPeriodKind(str, enum.Enum):
    PROPOSAL = "proposal"
    EXPLORATION = "exploration"
    TESTING = "testing"
    PROMOTION = "promotion"


class BallotChoice(str, enum.Enum):
    YAY = "yay"
    NAY = "nay"
    PASS = "pass"


@dataclass(frozen=True)
class BabylonTimeline:
    """Calendar of the Babylon 2.0 amendment process analysed in §4.2."""

    proposal_start: str = "2019-07-17"
    proposal_end: str = "2019-08-09"
    exploration_start: str = "2019-08-09"
    exploration_end: str = "2019-09-01"
    testing_start: str = "2019-09-01"
    testing_end: str = "2019-09-25"
    promotion_start: str = "2019-09-25"
    promotion_end: str = "2019-10-18"
    proposals: Tuple[str, ...] = ("Babylon", "Babylon 2.0")
    #: Participation rates reported by the paper.
    proposal_participation: float = 0.49
    exploration_participation: float = 0.81
    promotion_nay_share: float = 0.15

    def period_bounds(self, period: VotingPeriodKind) -> Tuple[float, float]:
        """(start, end) timestamps of a voting period."""
        mapping = {
            VotingPeriodKind.PROPOSAL: (self.proposal_start, self.proposal_end),
            VotingPeriodKind.EXPLORATION: (self.exploration_start, self.exploration_end),
            VotingPeriodKind.TESTING: (self.testing_start, self.testing_end),
            VotingPeriodKind.PROMOTION: (self.promotion_start, self.promotion_end),
        }
        start, end = mapping[period]
        return timestamp_from_iso(start), timestamp_from_iso(end)


@dataclass(frozen=True)
class VoteEvent:
    """One governance vote event with its timestamp, used for Figure 9."""

    timestamp: float
    period: VotingPeriodKind
    baker: str
    rolls: int
    proposal: str = ""
    ballot: str = ""


def cumulative_vote_series(
    events: List[VoteEvent], period: VotingPeriodKind, key: str
) -> List[Tuple[float, int]]:
    """Cumulative vote count over time for one proposal name or ballot choice.

    ``key`` is a proposal name during the proposal period and a ballot choice
    (``yay``/``nay``/``pass``) during exploration/promotion — exactly the
    series Figure 9 plots.
    """
    selected = [
        event
        for event in events
        if event.period is period
        and (event.proposal == key or event.ballot == key)
    ]
    selected.sort(key=lambda event: event.timestamp)
    series: List[Tuple[float, int]] = []
    running = 0
    for event in selected:
        running += event.rolls
        series.append((event.timestamp, running))
    return series
