"""Simulated endpoints and endpoint rotation.

The paper crawls each chain through public endpoints (§3.1): 6 of 32
advertised EOS endpoints, shortlisted for "a generous rate limit with stable
latency and throughput", a self-hosted Tezos node and XRP's full-history
API.  :class:`RpcEndpoint` is what every simulated endpoint shares — a
profile, a token bucket, simulated outages and latency, and a method table
— and each chain's ``rpc`` module adds only its head handler.
:class:`EndpointPool` rotates between the crawl's endpoints, demoting
endpoints that throttle or fail and promoting the healthiest ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Protocol, Sequence

from repro.common.errors import (
    INTERNAL_ERROR,
    METHOD_NOT_FOUND,
    BlockNotFound,
    ChainError,
    CollectionError,
    EndpointUnavailable,
    RpcError,
)
from repro.common.ratelimit import TokenBucket
from repro.common.records import BlockRecord
from repro.common.rng import DeterministicRng


class BlockEndpoint(Protocol):
    """What the crawler needs from an endpoint, regardless of the chain."""

    chain_name: str

    @property
    def name(self) -> str:  # pragma: no cover - protocol signature
        ...

    def head_height(self, now: float) -> int:  # pragma: no cover
        ...

    def fetch_block(self, height: int, now: float):  # pragma: no cover
        ...

    def latency(self) -> float:  # pragma: no cover
        ...


@dataclass
class EndpointProfile:
    """Operational characteristics of one endpoint.

    The paper shortlists 6 of 32 advertised EOS endpoints based on rate
    limits, latency and stability; these knobs model those properties.
    """

    name: str
    requests_per_second: float = 10.0
    burst: float = 20.0
    base_latency: float = 0.05
    failure_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.requests_per_second <= 0:
            raise ValueError("requests_per_second must be positive")
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError("failure_rate must be within [0, 1)")


Handler = Callable[[Mapping[str, Any]], Any]


class RpcEndpoint:
    """One simulated endpoint over a chain simulator.

    A chain's endpoint names its head and block methods in class
    attributes and answers the head method with ``_handle_head``; serving a
    block by height is the same on every chain.  Those two methods are all
    the crawl calls, so they are all an endpoint serves.
    """

    chain_name: str
    #: Keyword arguments of the profile an endpoint gets when given none.
    default_profile: Mapping[str, Any]
    head_method: str
    #: The head method's result field holding the head height.
    head_field: str
    block_method: str
    #: The block method's parameter holding the requested height.
    block_param: str

    def __init__(
        self,
        chain: Any,
        profile: Optional[EndpointProfile] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self.chain = chain
        self.profile = profile or EndpointProfile(**self.default_profile)
        self.rng = rng or DeterministicRng(0)
        self._bucket = TokenBucket(
            rate=self.profile.requests_per_second, capacity=self.profile.burst
        )
        self._handlers: Dict[str, Handler] = {
            self.head_method: self._handle_head,
            self.block_method: self._handle_block,
        }
        self.requests_served = 0
        self.requests_rejected = 0

    @property
    def name(self) -> str:
        return self.profile.name

    # -- protocol used by the crawler -------------------------------------------
    def head_height(self, now: float) -> int:
        """Current head height (the crawler's starting point)."""
        return int(self.call(self.head_method, {}, now)[self.head_field])

    def fetch_block(self, height: int, now: float) -> BlockRecord:
        """Fetch one block and decode it into the canonical record."""
        return BlockRecord.from_dict(self.call(self.block_method, {self.block_param: height}, now))

    def latency(self) -> float:
        """Simulated round-trip latency for one request."""
        return self.profile.base_latency * (1.0 + 0.2 * self.rng.random())

    # -- RPC plumbing --------------------------------------------------------------
    def call(self, method: str, params: Mapping[str, Any], now: float) -> Any:
        """Issue one call: rate limit, then simulated outage, then the handler.

        A handler's :class:`RpcError` reaches the caller as raised (a
        :class:`BlockNotFound` stays one); any other exception becomes an
        ``INTERNAL_ERROR`` so an endpoint never leaks a traceback to the
        crawler, as the real public endpoints behave.
        """
        self._bucket.acquire_or_raise(now)
        if self.profile.failure_rate and self.rng.bernoulli(self.profile.failure_rate):
            self.requests_rejected += 1
            raise EndpointUnavailable(f"{self.name} transient failure")
        self.requests_served += 1
        handler = self._handlers.get(method)
        if handler is None:
            raise RpcError(METHOD_NOT_FOUND, f"unknown method {method!r}")
        try:
            return handler(params)
        except RpcError:
            raise
        except Exception as exc:  # noqa: BLE001 - endpoints must not leak tracebacks
            raise RpcError(INTERNAL_ERROR, str(exc)) from exc

    def _handle_head(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        raise NotImplementedError

    def _handle_block(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        height = int(params.get(self.block_param, -1))
        try:
            block = self.chain.block_at(height)
        except ChainError as exc:
            raise BlockNotFound(height) from exc
        return block.to_dict()


@dataclass
class EndpointHealth:
    """Running health statistics for one pooled endpoint."""

    successes: int = 0
    failures: int = 0
    throttles: int = 0
    #: Simulated-time instant until which the endpoint's own ``Retry-After``
    #: hint asks not to be contacted.  Rotation honours it: a throttled
    #: endpoint is held out of selection until the hold expires instead of
    #: being re-selected on the very next rotation step.
    retry_after_until: float = 0.0

    @property
    def weight(self) -> float:
        """Selection weight: successes count for, failures/throttles against."""
        return max(0.1, 1.0 + self.successes * 0.01 - self.failures * 0.5 - self.throttles * 0.2)

    def held(self, now: Optional[float]) -> bool:
        """Whether a ``Retry-After`` hold is active at simulated time ``now``."""
        return now is not None and now < self.retry_after_until


class EndpointPool:
    """Rotates between the crawl's endpoints, avoiding unhealthy ones."""

    def __init__(self, endpoints: Sequence[BlockEndpoint]):
        if not endpoints:
            raise CollectionError("an endpoint pool needs at least one endpoint")
        self._endpoints: List[BlockEndpoint] = list(endpoints)
        self._health: Dict[str, EndpointHealth] = {
            endpoint.name: EndpointHealth() for endpoint in self._endpoints
        }
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._endpoints)

    @property
    def endpoints(self) -> List[BlockEndpoint]:
        return list(self._endpoints)

    def next_endpoint(self, now: Optional[float] = None) -> BlockEndpoint:
        """Pick the next endpoint, skipping over the least healthy ones.

        When ``now`` is given, endpoints inside an active ``Retry-After``
        hold (see :meth:`record_throttle`) are excluded from rotation; if
        every endpoint is held, the hold is ignored rather than stalling
        the crawl with no endpoint at all.
        """
        candidates = [
            endpoint
            for endpoint in self._endpoints
            if not self._health[endpoint.name].held(now)
        ] or self._endpoints
        ranked = sorted(
            candidates,
            key=lambda endpoint: -self._health[endpoint.name].weight,
        )
        # Round-robin over the endpoints whose health is close to the best
        # one, so a single endpoint is not hammered while unhealthy ones are
        # left alone until their peers degrade too.
        best_weight = self._health[ranked[0].name].weight
        usable = [
            endpoint
            for endpoint in ranked
            if self._health[endpoint.name].weight >= 0.5 * best_weight
        ] or ranked[:1]
        endpoint = usable[self._cursor % len(usable)]
        self._cursor += 1
        return endpoint

    def record_success(self, endpoint: BlockEndpoint) -> None:
        self._health[endpoint.name].successes += 1

    def record_failure(self, endpoint: BlockEndpoint) -> None:
        self._health[endpoint.name].failures += 1

    def record_throttle(
        self,
        endpoint: BlockEndpoint,
        retry_after: float = 0.0,
        now: Optional[float] = None,
    ) -> None:
        """Record a throttle, optionally holding the endpoint out of rotation.

        With a positive ``retry_after`` hint and a current simulated time,
        the endpoint is excluded from :meth:`next_endpoint` until
        ``now + retry_after`` — honouring the hint at the *pool* level
        instead of only stretching the next backoff delay.
        """
        state = self._health[endpoint.name]
        state.throttles += 1
        if retry_after > 0.0 and now is not None:
            state.retry_after_until = max(state.retry_after_until, now + retry_after)
