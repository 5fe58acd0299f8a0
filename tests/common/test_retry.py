"""Tests for the crawler's backoff policy."""

import pytest

from repro.common.retry import BackoffPolicy


class TestBackoffPolicy:
    def test_exponential_growth(self):
        policy = BackoffPolicy(base_delay=1.0, multiplier=2.0, max_delay=100.0)
        assert policy.delay(0) == 1.0
        assert policy.delay(1) == 2.0
        assert policy.delay(2) == 4.0

    def test_capped_at_max_delay(self):
        policy = BackoffPolicy(base_delay=1.0, multiplier=10.0, max_delay=5.0)
        assert policy.delay(3) == 5.0

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy().delay(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_delay": 0.0},
            {"multiplier": 0.5},
            {"base_delay": 10.0, "max_delay": 1.0},
        ],
    )
    def test_invalid_configuration(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)
