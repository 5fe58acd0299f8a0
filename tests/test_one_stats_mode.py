"""Statistics have one mode: exact.

Each kind of statistic has one state container (``repro.analysis.containers``)
and nothing selects another.  The approximate mode and its selector are gone
with every way to ask for them: no module, no ``--stats`` flag (an argparse
error, see ``test_cli.py::TestRetiredSurface``) and no ``REPRO_STATS``
variable.  This walks the sources and runs a child so none can creep back.
"""

from __future__ import annotations

import glob
import importlib.util
import os
import re
import subprocess
import sys

import pytest

from tests.support import SRC, child_env

MODE_WORDS = re.compile(r"sketch|statsmode|REPRO_STATS", re.IGNORECASE)


def test_no_source_names_a_statistics_mode():
    hits = []
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if MODE_WORDS.search(line):
                    hits.append(f"{os.path.relpath(path, SRC)}:{number}: {line.strip()}")
    assert hits == []


@pytest.mark.parametrize("module", ["repro.common.sketches", "repro.common.statsmode"])
def test_the_mode_modules_are_gone(module):
    assert importlib.util.find_spec(module) is None


def test_repro_stats_is_ignored(live_tail_cache):
    """A report under ``REPRO_STATS=sketch`` prints the exact report."""
    argv = [sys.executable, "-m", "repro", "report", "--scale", "live_tail"]
    argv += ["--cache", live_tail_cache, "--json"]
    printed = []
    for extra in ({}, {"REPRO_STATS": "sketch"}):
        done = subprocess.run(
            argv, env=dict(child_env(), **extra), capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout)
    assert printed[0] == printed[1]
    assert '"approximate": false' in printed[1]
