"""Tests for token-bucket rate limiting."""

import pytest

from repro.common.errors import RateLimitExceeded
from repro.common.ratelimit import TokenBucket


class TestTokenBucket:
    def test_burst_up_to_capacity(self):
        bucket = TokenBucket(rate=1.0, capacity=5.0)
        assert all(bucket.try_acquire(now=0.0) for _ in range(5))
        assert not bucket.try_acquire(now=0.0)

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=2.0, capacity=2.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        # After one second two tokens have been replenished.
        assert bucket.try_acquire(1.0)
        assert bucket.try_acquire(1.0)
        assert not bucket.try_acquire(1.0)

    def test_refill_capped_at_capacity(self):
        bucket = TokenBucket(rate=10.0, capacity=3.0)
        bucket.try_acquire(0.0)
        # A long idle period must not overfill the bucket.
        assert not bucket.try_acquire(100.0, tokens=4.0)
        assert bucket.try_acquire(100.0, tokens=3.0)

    def test_acquire_or_raise_reports_retry_after(self):
        bucket = TokenBucket(rate=1.0, capacity=1.0)
        bucket.acquire_or_raise(0.0)
        with pytest.raises(RateLimitExceeded) as excinfo:
            bucket.acquire_or_raise(0.0)
        assert excinfo.value.retry_after == pytest.approx(1.0)
        assert excinfo.value.code == 429

    def test_retry_after_hint_allows_success(self):
        bucket = TokenBucket(rate=1.0, capacity=1.0)
        bucket.acquire_or_raise(0.0)
        with pytest.raises(RateLimitExceeded) as excinfo:
            bucket.acquire_or_raise(0.0)
        assert bucket.try_acquire(0.0 + excinfo.value.retry_after + 1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.0)

    def test_clock_never_goes_backwards_defensively(self):
        bucket = TokenBucket(rate=1.0, capacity=2.0)
        assert bucket.try_acquire(10.0)
        # An earlier timestamp should not crash or mint extra tokens.
        assert bucket.try_acquire(5.0)
        assert not bucket.try_acquire(5.0)
