"""The exact-vs-sketch choice lives in one module.

``repro.analysis.containers`` is the only place under ``repro.analysis``
that reads the stats mode or asks which representation is live; this walks
the sources so a sixth special case cannot creep back into an accumulator.
The two survivors in ``parallel.py`` are not branches: they pin the parent's
resolved mode into what is shipped to worker processes.
"""

from __future__ import annotations

import glob
import os
import re

from tests.support import SRC

MODE_BRANCH = re.compile(r"_sketch is (not )?None|_hll is (not )?None|statsmode\.")

PROCESS_HOP_PIN = "statsmode.active_mode()"


def test_no_mode_branch_outside_the_container_module():
    hits, pins = [], 0
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "analysis", "*.py"))):
        name = os.path.basename(path)
        if name == "containers.py":
            continue
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if name == "parallel.py":
                    pins += line.count(PROCESS_HOP_PIN)
                    line = line.replace(PROCESS_HOP_PIN, "")
                if MODE_BRANCH.search(line):
                    hits.append((name, line.strip()))
    assert hits == []
    assert pins == 2
