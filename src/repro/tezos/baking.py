"""Liquid Proof-of-Stake baking and the endorsement rule.

Tezos' LPoS lets the baker set grow and shrink dynamically: any implicit
account whose staking balance (own funds plus delegations) reaches one roll
— 10,000 XTZ — may bake (§2.2).  A baked block must collect at least 32
endorsements from the endorsement-slot holders of that level before it is
accepted; endorsements are themselves operations and are what dominates the
chain's throughput (82 % of operations, Figure 1).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.common.errors import ChainError
from repro.common.rng import DeterministicRng
from repro.tezos.accounts import TezosAccountRegistry

#: Minimum staking balance required to bake (one roll), in XTZ.
ROLL_SIZE_XTZ = 10_000.0

#: Minimum endorsements a block must carry to be accepted (§2.3.2).
ENDORSEMENTS_PER_BLOCK = 32


class BakingRight(NamedTuple):
    """The right to bake (or endorse) a given level."""

    level: int
    baker: str
    priority: int = 0


class BakerSet:
    """The dynamic set of eligible bakers and their slot assignment."""

    def __init__(self, registry: TezosAccountRegistry, rng: Optional[DeterministicRng] = None):
        self.registry = registry
        self.rng = rng or DeterministicRng(0)
        self._weights_cache: Dict[str, float] = {}
        self._weights_cache_key: int = -1

    def _weights(self) -> Dict[str, float]:
        # One pass over the registry per account-set change; the two slot
        # selections a block performs (baker + endorsers) share the result.
        cache_key = len(self.registry)
        if cache_key != self._weights_cache_key:
            balances = self.registry.staking_balances()
            self._weights_cache = {
                address: float(int(balance // ROLL_SIZE_XTZ))
                for address, balance in balances.items()
                if balance >= ROLL_SIZE_XTZ
            }
            self._weights_cache_key = cache_key
        return self._weights_cache

    def baking_right(self, level: int) -> BakingRight:
        """Select the priority-0 baker for ``level``, weighted by rolls."""
        weights = self._weights()
        if not weights:
            raise ChainError("no eligible bakers: every baker is below one roll")
        baker = self.rng.categorical(weights)
        return BakingRight(level=level, baker=baker, priority=0)

    def endorsement_rights(self, level: int, slots: int = ENDORSEMENTS_PER_BLOCK) -> List[str]:
        """Select the holders of the ``slots`` endorsement slots for ``level``.

        A baker with more rolls receives proportionally more slots, so large
        bakers appear several times in the returned list — as on the real
        chain, where one endorsement operation can cover multiple slots.
        """
        weights = self._weights()
        if not weights:
            raise ChainError("no eligible bakers: every baker is below one roll")
        return [self.rng.categorical(weights) for _ in range(slots)]

    def validate_endorsements(self, endorsers: Sequence[str]) -> bool:
        """A block is valid only with at least 32 endorsement slots filled."""
        return len(endorsers) >= ENDORSEMENTS_PER_BLOCK
