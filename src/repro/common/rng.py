"""Seeded random helpers used by the workload generators.

The workload generators reproduce the *statistical shape* of the traffic the
paper observed — heavily skewed account activity, categorical transaction
mixes, bursty spam waves.  This module wraps :class:`random.Random` with the
distributions those generators need, so that every scenario is reproducible
from a single integer seed.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

_HEX_DIGITS = "0123456789abcdef"


@lru_cache(maxsize=64)
def _zipf_table(population: int, exponent: float) -> Tuple[float, Tuple[float, ...]]:
    """``(total, prefix sums)`` of the truncated Zipf weights, built once.

    ``total`` stays ``sum(weights)`` rather than the last prefix sum: the two
    can differ in the last bit (``sum`` is compensated on Python >= 3.12, the
    running sum is not) and the draw point is scaled by ``total``.
    """
    weights = [1.0 / math.pow(rank + 1, exponent) for rank in range(population)]
    return sum(weights), tuple(accumulate(weights))


#: ``id(weights)`` -> ``(weights, keys, prefix sums, total)``.  The entry holds
#: the mapping itself, so its id cannot be recycled while the entry lives.
_CATEGORICAL_TABLES: Dict[int, tuple] = {}


def _categorical_table(weights: Dict[T, float]) -> tuple:
    """Keys, prefix sums and total of a weight mapping, built on first draw.

    A mapping is summed once, when it is first drawn from; callers treat
    their weight tables as constants and build a new dict to change one.
    """
    entry = _CATEGORICAL_TABLES.get(id(weights))
    if entry is None or entry[0] is not weights or len(entry[1]) != len(weights):
        if not weights:
            raise ValueError("categorical draw requires at least one outcome")
        total = float(sum(weights.values()))
        if total <= 0:
            raise ValueError("categorical weights must sum to a positive value")
        if min(weights.values()) < 0:
            raise ValueError("categorical weights must be non-negative")
        if len(_CATEGORICAL_TABLES) >= 256:
            _CATEGORICAL_TABLES.clear()
        prefix = tuple(accumulate(weights.values(), initial=0.0))[1:]
        entry = _CATEGORICAL_TABLES[id(weights)] = (weights, tuple(weights), prefix, total)
    return entry


class DeterministicRng:
    """A seeded random source with the distributions the workloads need."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._random = random.Random(self.seed)

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent child stream identified by ``label``.

        Forking lets each chain workload own its own stream so that changing
        one chain's parameters does not perturb another chain's draws.
        """
        child_seed = hash((self.seed, label)) & 0x7FFF_FFFF
        return DeterministicRng(child_seed)

    # -- primitive draws -------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def choice(self, items: Sequence[T]) -> T:
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        return self._random.sample(items, k)

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    # -- distributions ---------------------------------------------------
    def categorical(self, weights: Dict[T, float]) -> T:
        """Draw a key from ``weights`` proportionally to its weight.

        The mapping is read once, on its first draw (see
        :func:`_categorical_table`): build a new dict to change a weight.
        """
        _, keys, prefix, total = _categorical_table(weights)
        # Floating point slack past the last prefix sum returns the final key.
        return keys[min(bisect_right(prefix, self._random.random() * total), len(keys) - 1)]

    def zipf_index(self, population: int, exponent: float = 1.1) -> int:
        """Draw an index in ``[0, population)`` following a Zipf-like law.

        Account activity on all three chains is extremely skewed (the 18 most
        active XRP accounts produce half the traffic); a truncated Zipf is the
        standard model for that shape.
        """
        if population <= 0:
            raise ValueError("population must be positive")
        if population == 1:
            return 0
        total, prefix = _zipf_table(population, exponent)
        return min(bisect_right(prefix, self._random.random() * total), population - 1)

    def lognormal(self, mean: float, sigma: float) -> float:
        """Draw from a log-normal distribution (used for payment amounts)."""
        return self._random.lognormvariate(mean, sigma)

    def poisson(self, mean: float) -> int:
        """Draw a Poisson-distributed count (Knuth's algorithm, small means)."""
        if mean < 0:
            raise ValueError("mean must be non-negative")
        if mean == 0:
            return 0
        if mean > 500:
            # Normal approximation keeps the draw O(1) for the large per-block
            # action counts that the EIDOS spike produces.
            value = self._random.gauss(mean, math.sqrt(mean))
            return max(0, int(round(value)))
        limit = math.exp(-mean)
        count = 0
        product = self._random.random()
        while product > limit:
            count += 1
            product *= self._random.random()
        return count

    def pareto_amount(self, scale: float, alpha: float = 1.5) -> float:
        """Draw a heavy-tailed positive amount (Pareto), scaled by ``scale``."""
        return scale * self._random.paretovariate(alpha)

    def hex_string(self, length: int = 64) -> str:
        """Produce a deterministic pseudo-hash hex string of ``length`` chars."""
        # ``random.choice`` over 16 items draws ``getrandbits(5)`` until the
        # value is below 16; drawing the same way keeps the stream identical.
        getrandbits = self._random.getrandbits
        digits: List[str] = []
        while len(digits) < length:
            value = getrandbits(5)
            if value < 16:
                digits.append(_HEX_DIGITS[value])
        return "".join(digits)
