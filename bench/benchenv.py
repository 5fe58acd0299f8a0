"""What every benchmark process shares: paths, the scrubbed environment, rendering."""

from __future__ import annotations

import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Iterator, List, NamedTuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
BENCH = os.path.join(REPO, "bench")
#: Everything a run writes lives here (listed in the root ``.gitignore``).
OUT = os.path.join(REPO, "bench_out")

#: The registered scenario every workload uses.  It is the smallest one
#: (~119k rows, 3 chunks, 40 six-hour batches): each run has to build its
#: inputs from the seed, twice, and with the next size up (``small``, ~166k
#: rows) a run would take all of the ~30 s the driver's total allows it.
SCALE = "live_tail"

_SCRUBBED = ("REPRO_KERNELS", "REPRO_STATS", "REPRO_FAULTS", "REPRO_CHUNK_FORMAT")


def bootstrap() -> None:
    """Make ``src/`` importable, drop the ``REPRO_*`` switches, pin the hash seed.

    Every entry point calls this first, so the harness and each child it
    starts use the numpy kernels, exact statistics and v2 chunks whatever
    the invoking shell had set.

    The workload generators derive their child random streams with
    ``hash((seed, label))``, which Python randomises per process: the
    figures come out the same, but account strings — and with them chunk,
    cache-entry and checkpoint sizes — differ by a few bytes from process
    to process.  Pinning ``PYTHONHASHSEED`` makes "the same ``--seed`` gives
    the same inputs" hold to the byte, so the ``counts`` repeat exactly.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"bench: {os.path.join(SRC, 'repro')} not found; run from a full checkout")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    for name in _SCRUBBED:
        os.environ.pop(name, None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """The environment for ``python -m repro`` children (scrubbed already)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def store_directory(cache_root: str, seed: int) -> str:
    """Where ``repro report --cache ROOT`` keeps this scenario's store."""
    return os.path.join(cache_root, f"{SCALE}-seed{seed}")


def render(report) -> str:
    """A report as the canonical JSON text every correctness gate compares."""
    from repro.cli import _report_to_dict

    return json.dumps(_report_to_dict(report), sort_keys=True)


def store_bytes(store_dir: str) -> int:
    """Chunk files plus manifest of the frame store in ``store_dir``.

    A dataset cache's ``meta.json`` and a store's ``cache/`` sub-directory
    are not the store's and are left out.
    """
    from repro.collection.store import MANIFEST_NAME

    paths = glob.glob(os.path.join(store_dir, "frame-chunk-*"))
    paths.append(os.path.join(store_dir, MANIFEST_NAME))
    return sum(os.path.getsize(path) for path in paths)


def cpu_seconds() -> float:
    """CPU seconds (user + system) of this process and the children it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Timed(NamedTuple):
    """How long something took: on the wall clock, and in CPU seconds.

    Every bounded timing of the benchmark is the CPU figure.  The work is
    one process at a time, compute-bound and never sleeps, so on a quiet
    machine the two agree to ~2 %; on the oversubscribed VM the benchmark
    has to run on, the wall clock also counts time the hypervisor gave to
    other tenants (same commit, same seed, minutes apart: 0.45 s and 0.77 s
    for one operation), which says nothing about the program.
    """

    wall: float
    cpu: float


class Child(NamedTuple):
    """A finished child process: what it said and what it cost."""

    returncode: int
    stdout: str
    stderr: str
    timed: Timed
    #: Peak resident set of the child itself (see :mod:`spawn`).
    rss_mb: float


def run_child(argv: List[str], cwd: str) -> Child:
    """Run ``argv`` to completion through the :mod:`spawn` trampoline.

    ``cwd`` also receives the trampoline's usage file, which is read and
    removed here.  The times are the child's own — the trampoline's start-up
    is in neither of them.
    """
    usage_path = os.path.join(cwd, "spawn-usage.json")
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "spawn.py"), usage_path, *argv],
        env=child_env(), cwd=cwd, capture_output=True, text=True,
    )  # fmt: skip
    with open(usage_path, encoding="utf-8") as handle:
        usage = json.load(handle)
    os.remove(usage_path)
    return Child(
        done.returncode,
        done.stdout,
        done.stderr,
        Timed(usage["wall_s"], usage["cpu_s"]),
        usage["maxrss_kb"] / 1024.0,
    )


#: CPU seconds ``reference.py`` costs on the box the baseline was taken on, in
#: a quiet spell.  Scaled times are seconds "at this speed".
REFERENCE_CPU_S = 0.34


class BoxSpeed:
    """How fast the box ran during one run, told by ``reference.py`` children.

    The box changes speed by up to a quarter for minutes at a time, set-up
    and every child alike, which no median within a run takes out.  So a run
    spends a fifth of its time on the reference program, spread evenly
    between the things it measures, and reports its times divided by
    :meth:`factor`.  The raw seconds and the samples go to the result file.
    """

    #: Share of the wall time that goes to reference children.
    SHARE = 0.2

    def __init__(self, cwd: str) -> None:
        self.cwd = cwd
        self.samples: List[float] = []
        self._started = time.perf_counter()
        self._spent = 0.0

    def keep_up(self) -> None:
        """Run reference children until they have had their share of the time so far."""
        while self._spent < self.SHARE * (time.perf_counter() - self._started):
            done = run_child([sys.executable, os.path.join(BENCH, "reference.py")], cwd=self.cwd)
            if done.returncode != 0:
                sys.exit(f"bench: reference.py failed\n{done.stderr[-2000:]}")
            self.samples.append(done.timed.cpu)
            self._spent += done.timed.wall

    def factor(self) -> float:
        """Above 1 when the box ran slower than the baseline's."""
        return statistics.median(self.samples) / REFERENCE_CPU_S


def while_budget(seconds: float, at_least: int = 1) -> Iterator[int]:
    """Count iterations of a closed loop until ``seconds`` of wall time are up.

    The clock starts with the first iteration.  After ``at_least`` of them a
    further one starts only while half of the previous one's duration still
    fits, so a five-second operation is not issued at second 9.9.
    """
    started = time.perf_counter()
    count = 0
    last = 0.0
    while count < at_least or time.perf_counter() - started + last / 2 < seconds:
        entered = time.perf_counter()
        yield count
        last = time.perf_counter() - entered
        count += 1


class Stopwatch:
    """Reads the :class:`Timed` since it was created."""

    def __init__(self) -> None:
        self._wall = time.perf_counter()
        self._cpu = cpu_seconds()

    def read(self) -> Timed:
        return Timed(time.perf_counter() - self._wall, cpu_seconds() - self._cpu)
