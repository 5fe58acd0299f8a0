"""Tezos governance analysis (§4.2 and Figure 9).

The paper analyses the Babylon 2.0 amendment: the evolution of proposal
upvotes, the exploration-period ballots (no ``nay`` votes, one explicit
``pass``), the promotion-period ballots (~15 % ``nay`` after breakages on the
test network), and the participation rates of each period.  It also counts
how rare governance operations are within the observation window and argues
that the proposal and exploration periods could be merged.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.columns import CHAIN_CODES, CHAIN_ORDER, FrameLike, TxFrame
from repro.common.records import ChainId
from repro.analysis.engine import Accumulator, BatchStep, RowIndices, Step
from repro.analysis.vectorized import block_columns, count_codes
from repro.common.statecodec import pack_code_table, restore_code_table

# The vote-event model is the Tezos simulator's: the functions that walk it
# import it at the call, so loading this module loads no simulator.
if TYPE_CHECKING:
    from repro.tezos.governance import VoteEvent, VotingPeriodKind


class PeriodSummary(NamedTuple):
    """Vote summary of one ballot period (exploration or promotion)."""

    period: VotingPeriodKind
    yay: int
    nay: int
    passes: int
    participation: float

    @property
    def total(self) -> int:
        return self.yay + self.nay + self.passes

    @property
    def approval_rate(self) -> float:
        decided = self.yay + self.nay
        return self.yay / decided if decided else 0.0

    @property
    def nay_share(self) -> float:
        return self.nay / self.total if self.total else 0.0


class GovernanceReport(NamedTuple):
    """Findings of the governance case study."""

    proposal_votes: Dict[str, int]
    winning_proposal: str
    proposal_participation: float
    exploration: PeriodSummary
    promotion: PeriodSummary
    governance_operation_count: int

    @property
    def exploration_unanimous(self) -> bool:
        """The paper observes zero ``nay`` votes during exploration."""
        return self.exploration.nay == 0

    @property
    def could_merge_periods(self) -> bool:
        """The paper's recommendation holds when exploration approval is ~unanimous."""
        return self.exploration.approval_rate >= 0.99


def summarize_period(
    events: Sequence[VoteEvent], period: VotingPeriodKind, electorate_rolls: int
) -> PeriodSummary:
    """Tally one ballot period from the vote-event stream."""
    yay = sum(event.rolls for event in events if event.period is period and event.ballot == "yay")
    nay = sum(event.rolls for event in events if event.period is period and event.ballot == "nay")
    passes = sum(
        event.rolls for event in events if event.period is period and event.ballot == "pass"
    )
    voters = sum(1 for event in events if event.period is period and event.ballot)
    participation = voters / electorate_rolls if electorate_rolls else 0.0
    return PeriodSummary(
        period=period, yay=yay, nay=nay, passes=passes, participation=min(1.0, participation)
    )


class GovernanceOpsAccumulator(Accumulator):
    """Single-pass count of on-chain governance operations (§4.2 rarity)."""

    name = "governance_ops"

    def _reset(self, frame: TxFrame) -> None:
        self._frame = frame
        #: (chain, type) histogram; the governance types are picked out of
        #: it at :meth:`finalize`.
        self._bulk: Counter = Counter()
        #: Already-tallied operations carried by restored payloads.
        self._count = 0

    def bind(self, frame: TxFrame) -> Step:
        self._reset(frame)
        bulk = self._bulk
        chain_codes = frame.chain_code
        type_codes = frame.type_code

        def step(row: int) -> None:
            bulk[(chain_codes[row], type_codes[row])] += 1

        return step

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: (chain, type) packed-code histogram."""
        self._reset(frame)
        bulk = self._bulk
        chain_codes = frame.ndarray("chain_code")
        type_codes = frame.ndarray("type_code")
        sizes = (len(CHAIN_ORDER), len(frame.types))

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            count_codes(bulk, block_columns(rows, chain_codes, type_codes), sizes)

        return consume

    def export_state(self) -> Dict:
        return {
            "count": self._count,
            "bulk": pack_code_table(self._bulk, 2) if self._bulk else None,
        }

    def restore_state(self, payload: Dict) -> None:
        self._count += payload["count"]
        if payload["bulk"] is not None:
            restore_code_table(self._bulk, payload["bulk"])

    def finalize(self) -> int:
        types = self._frame.types
        tezos = CHAIN_CODES[ChainId.TEZOS]
        governance_codes = {types.code("Ballot"), types.code("Proposals")} - {None}
        return self._count + sum(
            count
            for (chain, type_code), count in self._bulk.items()
            if chain == tezos and type_code in governance_codes
        )


def analyze_governance(
    events: Sequence[VoteEvent],
    frame: Optional[FrameLike] = None,
    electorate_rolls: int = 460,
) -> GovernanceReport:
    """Compute the §4.2 governance statistics from the vote events; the
    governance-operation count comes from ``frame`` (a frame or view of the
    Tezos rows) when one is given."""
    from repro.tezos.governance import VotingPeriodKind

    proposal_votes: Counter = Counter()
    proposal_voters = 0
    for event in events:
        if event.period is VotingPeriodKind.PROPOSAL and event.proposal:
            proposal_votes[event.proposal] += event.rolls
            proposal_voters += 1
    winning = max(proposal_votes.items(), key=lambda item: item[1])[0] if proposal_votes else ""
    governance_ops = 0 if frame is None else GovernanceOpsAccumulator().run(frame)
    return GovernanceReport(
        proposal_votes=dict(proposal_votes),
        winning_proposal=winning,
        proposal_participation=min(1.0, proposal_voters / electorate_rolls)
        if electorate_rolls
        else 0.0,
        exploration=summarize_period(events, VotingPeriodKind.EXPLORATION, electorate_rolls),
        promotion=summarize_period(events, VotingPeriodKind.PROMOTION, electorate_rolls),
        governance_operation_count=governance_ops,
    )


def figure9_series(
    events: Sequence[VoteEvent],
) -> Dict[str, Dict[str, List[Tuple[float, int]]]]:
    """The three Figure 9 panels as cumulative (timestamp, votes) series.

    Panel (a) plots the two competing proposals during the proposal period;
    panels (b) and (c) plot the yay / nay / pass ballots during exploration
    and promotion.
    """
    from repro.tezos.governance import BallotChoice, VotingPeriodKind, cumulative_vote_series

    proposals = sorted(
        {event.proposal for event in events if event.period is VotingPeriodKind.PROPOSAL and event.proposal}
    )
    panels: Dict[str, Dict[str, List[Tuple[float, int]]]] = {
        "proposal": {
            name: cumulative_vote_series(list(events), VotingPeriodKind.PROPOSAL, name)
            for name in proposals
        },
        "exploration": {
            choice.value: cumulative_vote_series(
                list(events), VotingPeriodKind.EXPLORATION, choice.value
            )
            for choice in BallotChoice
        },
        "promotion": {
            choice.value: cumulative_vote_series(
                list(events), VotingPeriodKind.PROMOTION, choice.value
            )
            for choice in BallotChoice
        },
    }
    return panels
