"""The exact-vs-sketch choice lives in one module.

``repro.analysis.containers`` is the only place under ``repro.analysis``
that reads the stats mode or asks which representation is live; this walks
the sources so a sixth special case cannot creep back into an accumulator.
The two survivors are not branches: they pin the calling process's resolved
mode into what crosses a process boundary.  ``report.figure_factory`` is the
single site that pins it into the accumulator factories every execution path
builds (serial, chunk engine, incremental — there used to be one hand-built
``partial`` per path), and ``parallel.chunk_scan_states`` pins it into the
state-cache key those factories' entries are filed under.
"""

from __future__ import annotations

import glob
import os
import re

from tests.support import SRC

MODE_BRANCH = re.compile(r"_sketch is (not )?None|_hll is (not )?None|statsmode\.")

PROCESS_HOP_PIN = "statsmode.active_mode()"

#: module → how many pins it holds.
PINS = {"report.py": 1, "parallel.py": 1}


def test_no_mode_branch_outside_the_container_module():
    hits, pins = [], {}
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "analysis", "*.py"))):
        name = os.path.basename(path)
        if name == "containers.py":
            continue
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if name in PINS and PROCESS_HOP_PIN in line:
                    pins[name] = pins.get(name, 0) + line.count(PROCESS_HOP_PIN)
                    line = line.replace(PROCESS_HOP_PIN, "")
                if MODE_BRANCH.search(line):
                    hits.append((name, line.strip()))
    assert hits == []
    assert pins == PINS
