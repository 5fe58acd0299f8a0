"""Test-only support code shared by ``tests/`` and ``benchmarks/``."""
