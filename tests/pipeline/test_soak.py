"""Tests for the crash-schedule soak harness.

Short soaks (a few simulated days of the ``small`` scenario) under pinned
fault plans: recovery must converge to figure-for-figure identity with a
fault-free oracle, and the event log must be byte-reproducible.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.common.faults import FaultPlan
from repro.pipeline.soak import SoakResult, _check_memory_flat, run_soak
from repro.pipeline.soak import SoakCycle

#: Endpoint flaps + a torn chunk write + a mid-update crash + one corrupted
#: checkpoint — the ISSUE's pinned recovery schedule, scaled to test size.
RECOVERY_SPEC = (
    "seed=11;"
    "crawler.fetch:mode=rate_limit:every=40:times=2:retry_after=5;"
    "crawler.fetch:mode=unavailable:p=0.01:times=5;"
    "crawler.head:mode=timeout:nth=4;"
    "store.chunk_write:mode=torn:nth=3;"
    "pipeline.update:mode=crash:nth=2;"
    "checkpoint.save:mode=bitflip:nth=3"
)


class TestFaultedSoak:
    def test_recovers_to_oracle_identity(self, tmp_path):
        plan = FaultPlan.parse(RECOVERY_SPEC)
        result = run_soak(str(tmp_path / "soak"), days=3, scale="small", plan=plan)
        assert result.ok, result.failures
        assert len(result.cycles) == 3
        # The schedule actually exercised the recovery paths.
        assert result.injected_fires > 0
        assert result.crashes > 0
        assert result.rescans > 0  # the corrupted checkpoint degraded to a rescan
        assert result.rate_limit_hits > 0
        # And every gate held.
        assert result.fsck_clean
        assert result.identity_ok
        assert result.rows_total == result.oracle_rows > 0
        assert result.memory_flat

    def test_event_log_is_byte_identical_across_runs(self, tmp_path):
        logs = []
        for run in range(2):
            plan = FaultPlan.parse(RECOVERY_SPEC)
            result = run_soak(
                str(tmp_path / f"soak-{run}"),
                days=3,
                scale="small",
                plan=plan,
                oracle=False,
            )
            assert result.fsck_clean
            logs.append(result.event_log)
        assert logs[0] == logs[1]
        assert logs[0]  # something actually fired

    def test_worker_death_degrades_to_serial(self, tmp_path):
        plan = FaultPlan.parse("seed=3;worker.chunk_task:mode=kill:nth=1")
        result = run_soak(
            str(tmp_path / "soak"),
            days=2,
            scale="small",
            plan=plan,
            workers=2,
            oracle=False,
        )
        assert result.ok, result.failures
        assert result.worker_deaths > 0
        assert result.fsck_clean

    def test_silent_corruption_fails_the_gates(self, tmp_path):
        # A bit flip the durability machinery cannot see at write time:
        # the soak must *fail loudly* — fsck damage, not a green run.
        plan = FaultPlan.parse("seed=1;store.chunk_write:mode=bitflip:nth=2")
        result = run_soak(
            str(tmp_path / "soak"),
            days=2,
            scale="small",
            plan=plan,
            oracle=False,
        )
        assert not result.ok
        assert result.fsck_clean is False

    def test_fault_free_soak_is_clean(self, tmp_path):
        result = run_soak(str(tmp_path / "soak"), days=2, scale="small")
        assert result.ok, result.failures
        assert result.crashes == 0
        assert result.retries == 0
        assert result.injected_fires == 0
        assert result.event_log == ""


#: Crawl faults only: throttles with a ``Retry-After`` hint, outages and a
#: head timeout.  Every fire records its simulated time, so a changed
#: latency draw, backoff delay or endpoint rotation moves the event log.
CRAWL_SPEC = (
    "seed=11;"
    "crawler.fetch:mode=rate_limit:every=40:times=3:retry_after=5;"
    "crawler.fetch:mode=unavailable:p=0.01:times=5;"
    "crawler.head:mode=timeout:nth=4"
)

#: sha-256 of ``SoakResult.event_log`` (the ``repro soak --events`` file is
#: that log plus a newline: 94ca7368…a693ca10), recorded before the endpoint
#: layer was collapsed onto one base class.
CRAWL_EVENT_LOG_SHA256 = "b5ffcb749cc9ef5e325e0ce7b6b92c5baeca8facdb983a376b358f8920e57be9"

_PINNED_SOAK = """
import hashlib, json, sys
from repro.common.faults import FaultPlan
from repro.pipeline.soak import run_soak
result = run_soak(sys.argv[1], days=4, scale="small", seed=7,
                  plan=FaultPlan.parse(sys.argv[2]), oracle=False)
print(json.dumps({
    "event_log_sha256": hashlib.sha256(result.event_log.encode()).hexdigest(),
    "retries": result.retries,
    "rate_limit_hits": result.rate_limit_hits,
    "injected_fires": result.injected_fires,
    "rows_total": result.rows_total,
}))
"""


def test_crawl_fault_schedule_is_pinned(tmp_path):
    """The crawl's fault schedule, retries and rows match the pinned run.

    The soak runs in a ``PYTHONHASHSEED=0`` child, as the generation golden
    does: ``DeterministicRng.fork`` seeds child streams with ``hash()``.
    """
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
    )
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    env.pop("REPRO_FAULTS", None)
    done = subprocess.run(
        [sys.executable, "-c", _PINNED_SOAK, str(tmp_path / "soak"), CRAWL_SPEC],
        env=env,
        capture_output=True,
        check=True,
        timeout=600,
    )
    assert json.loads(done.stdout) == {
        "event_log_sha256": CRAWL_EVENT_LOG_SHA256,
        "retries": 3,
        "rate_limit_hits": 2,
        "injected_fires": 4,
        "rows_total": 10_309,
    }


class TestMemoryGate:
    def _result_with(self, samples):
        result = SoakResult(scale="small", seed=7, days_requested=len(samples))
        for day, tracemalloc_bytes in enumerate(samples):
            result.cycles.append(
                SoakCycle(
                    day=day,
                    rows_ingested=0,
                    rows_total=0,
                    retries=0,
                    rate_limit_hits=0,
                    rescans=0,
                    crashes=0,
                    worker_deaths=0,
                    tracemalloc_bytes=tracemalloc_bytes,
                )
            )
        return result

    def test_flat_profile_passes(self):
        result = self._result_with([100 << 20] * 10)
        assert _check_memory_flat(result)

    def test_leaking_profile_fails(self):
        result = self._result_with([(100 + 50 * day) << 20 for day in range(10)])
        assert not _check_memory_flat(result)

    def test_short_runs_are_not_judged(self):
        result = self._result_with([1, 1000])
        assert _check_memory_flat(result)
