"""Test-only support code shared by ``tests/`` and ``benchmarks/``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import List, NamedTuple, Sequence, Tuple

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def run_on_records(accumulator, records):
    """``accumulator``'s figure over a frame built from ``records``."""
    from repro.common.columns import TxFrame

    return accumulator.run(TxFrame.from_records(records))


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


_MAIN_CHILD = """
import io, json, sys
from repro.cli import main
code = main({argv!r}, out=io.StringIO())
print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
"""


def run_main(argv: List[str]) -> Tuple[List[str], str]:
    """``sys.modules`` of a fresh interpreter after ``repro.cli.main(argv)``,
    and what the command printed on stderr."""
    done = run_child(["-c", _MAIN_CHILD.format(argv=argv)])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0, done.stderr
    return result["modules"], done.stderr


class ColdChild(NamedTuple):
    """What a CLI child wrote, and its ``sys.modules`` when it was done."""

    path: str
    modules: List[str]
