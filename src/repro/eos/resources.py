"""EOS resource model: CPU/NET staking, RAM market and congestion mode.

EOS has no per-transaction fee.  Instead, accounts stake EOS for CPU and NET
bandwidth and buy RAM from a bonding-curve market.  In normal operation an
account may consume *more* CPU than its stake entitles it to (the surplus is
lent from idle capacity); when total utilisation crosses a threshold the
network enters **congestion mode** and every account is limited to its
staked share.  The EIDOS airdrop pushed the network into congestion mode and
the market price of CPU rose by orders of magnitude (§4.1) — the effect that
forced casual users (who stake little) off the chain.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional


class ResourceUsage:
    """CPU/NET consumption of one account inside the current window.

    A plain class rather than a dataclass: :meth:`EosResourceMarket.charge`
    adds to it in place, once per transaction.
    """

    __slots__ = ("cpu_us", "net_bytes")

    def __init__(self, cpu_us: float = 0.0, net_bytes: float = 0.0) -> None:
        self.cpu_us = cpu_us
        self.net_bytes = net_bytes

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cpu_us, self.net_bytes) == (other.cpu_us, other.net_bytes)

    #: Mutable, like the dataclass it replaced: equal usages need not hash.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ResourceUsage(cpu_us={self.cpu_us!r}, net_bytes={self.net_bytes!r})"


class CongestionSample(NamedTuple):
    """Utilisation snapshot taken once per block."""

    timestamp: float
    utilization: float
    congested: bool
    cpu_price: float


class EosResourceMarket:
    """Network-wide CPU accounting with congestion-mode semantics.

    Parameters
    ----------
    total_cpu_us_per_block:
        CPU microseconds available per block (the block CPU limit).
    congestion_threshold:
        Fraction of the block CPU limit above which the network switches to
        congestion mode.
    leniency_multiplier:
        In normal mode an account may use up to ``leniency_multiplier`` times
        its staked share of the block CPU.
    base_cpu_price:
        Reference price (EOS per ms of CPU) in an idle network; the observed
        price scales super-linearly with utilisation, reproducing the
        10,000 % spike the paper reports after the EIDOS launch.
    """

    def __init__(
        self,
        total_cpu_us_per_block: float = 200_000.0,
        congestion_threshold: float = 0.9,
        leniency_multiplier: float = 100.0,
        base_cpu_price: float = 0.0001,
    ) -> None:
        if total_cpu_us_per_block <= 0:
            raise ValueError("total_cpu_us_per_block must be positive")
        if not 0.0 < congestion_threshold <= 1.0:
            raise ValueError("congestion_threshold must be within (0, 1]")
        self.total_cpu_us_per_block = total_cpu_us_per_block
        self.congestion_threshold = congestion_threshold
        self.leniency_multiplier = leniency_multiplier
        self.base_cpu_price = base_cpu_price
        self._stakes: Dict[str, float] = {}
        #: ``sum(self._stakes.values())``, summed again after a stake changes.
        self._total_staked: Optional[float] = None
        self._usage: Dict[str, ResourceUsage] = {}
        self._block_cpu_used = 0.0
        self._congested = False
        self._history: List[CongestionSample] = []

    # -- staking -----------------------------------------------------------
    def stake_cpu(self, account: str, amount: float) -> None:
        """Stake ``amount`` EOS towards CPU for ``account``."""
        if amount < 0:
            raise ValueError("stake must be non-negative")
        self._stakes[account] = self._stakes.get(account, 0.0) + amount
        self._total_staked = None

    def total_staked(self) -> float:
        if self._total_staked is None:
            self._total_staked = sum(self._stakes.values())
        return self._total_staked

    # -- per-block accounting ------------------------------------------------
    def cpu_entitlement_us(self, account: str) -> float:
        """CPU microseconds ``account`` may use in the current block."""
        total = self.total_staked()
        if total <= 0:
            return 0.0
        share = self._stakes.get(account, 0.0) / total
        entitlement = share * self.total_cpu_us_per_block
        if not self._congested:
            entitlement *= self.leniency_multiplier
        return entitlement

    def can_execute(self, account: str, cpu_us: float) -> bool:
        """Whether ``account`` has CPU headroom for an action costing ``cpu_us``."""
        usage = self._usage.get(account)
        used = usage.cpu_us if usage is not None else 0.0
        return used + cpu_us <= self.cpu_entitlement_us(account) + 1e-9

    def charge(self, account: str, cpu_us: float, net_bytes: float = 0.0) -> bool:
        """Charge an execution against ``account``; returns False if rejected."""
        if not self.can_execute(account, cpu_us):
            return False
        usage = self._usage.get(account)
        if usage is None:
            usage = self._usage[account] = ResourceUsage()
        usage.cpu_us += cpu_us
        usage.net_bytes += net_bytes
        self._block_cpu_used += cpu_us
        return True

    def end_block(self, timestamp: float) -> CongestionSample:
        """Close the current block window and update congestion state."""
        utilization = min(1.0, self._block_cpu_used / self.total_cpu_us_per_block)
        self._congested = utilization >= self.congestion_threshold
        sample = CongestionSample(
            timestamp=timestamp,
            utilization=utilization,
            congested=self._congested,
            cpu_price=self.cpu_price(),
        )
        self._history.append(sample)
        self._usage = {}
        self._block_cpu_used = 0.0
        return sample

    # -- observability -------------------------------------------------------
    @property
    def congested(self) -> bool:
        return self._congested

    def utilization(self) -> float:
        """Utilisation of the block currently being filled."""
        return min(1.0, self._block_cpu_used / self.total_cpu_us_per_block)

    def cpu_price(self) -> float:
        """Effective price of CPU given current utilisation.

        Price grows super-linearly as utilisation approaches 1, reproducing
        the >100x increase observed after the EIDOS launch.
        """
        utilization = self.utilization()
        # A convex response: near-idle ~ base price, saturated ~ 10^4x base.
        multiplier = 1.0 + (10_000.0 - 1.0) * utilization ** 4
        return self.base_cpu_price * multiplier

    def history(self) -> List[CongestionSample]:
        return list(self._history)
