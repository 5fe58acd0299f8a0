"""Test-only support code shared by ``tests/`` and ``benchmarks/``."""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Sequence

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def child_env() -> dict:
    """The environment of a test child: this checkout, pinned hash seed."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    return env


def run_child(argv: Sequence[str], timeout: float = 120) -> subprocess.CompletedProcess:
    """``python ARGV`` in a fresh interpreter: cold ``sys.modules``, pinned hash seed.

    In-process CLI tests share one warmed ``sys.modules``, so they cannot see
    what a command imports — or forgot to import — when it runs alone.
    """
    return subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
