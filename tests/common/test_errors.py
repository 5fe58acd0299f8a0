"""Tests for the exception hierarchy."""

import pytest

from repro.common.errors import (
    AnalysisError,
    BlockNotFound,
    ChainError,
    CollectionError,
    ConfigurationError,
    EndpointUnavailable,
    RateLimitExceeded,
    ReproError,
    RpcError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            ConfigurationError,
            ChainError,
            RpcError,
            RateLimitExceeded,
            EndpointUnavailable,
            BlockNotFound,
            CollectionError,
            AnalysisError,
        ],
    )
    def test_everything_derives_from_repro_error(self, exception_type):
        if exception_type is RpcError:
            instance = exception_type(500, "boom")
        elif exception_type is BlockNotFound:
            instance = exception_type(42)
        elif exception_type in (RateLimitExceeded, EndpointUnavailable):
            instance = exception_type()
        else:
            instance = exception_type("boom")
        assert isinstance(instance, ReproError)

    def test_rpc_error_carries_code_and_message(self):
        error = RpcError(404, "missing")
        assert error.code == 404
        assert error.message == "missing"
        assert "404" in str(error)

    def test_rate_limit_is_a_429_rpc_error(self):
        error = RateLimitExceeded(retry_after=2.5)
        assert isinstance(error, RpcError)
        assert error.code == 429
        assert error.retry_after == 2.5

    def test_block_not_found_keeps_height(self):
        error = BlockNotFound(1234)
        assert error.height == 1234
        assert error.code == 404

    def test_catching_repro_error_covers_chain_and_rpc_failures(self):
        for raiser in (lambda: (_ for _ in ()).throw(ChainError("x")),):
            with pytest.raises(ReproError):
                list(raiser())
