"""Tests for the deterministic fault-injection registry."""

import pytest

from repro.common import faults
from repro.common.errors import (
    ConfigurationError,
    EndpointUnavailable,
    RateLimitExceeded,
    RpcError,
)
from repro.common.faults import FaultPlan, InjectedCrash


class TestSpecParsing:
    def test_single_rule(self):
        plan = FaultPlan.parse("store.chunk_write:mode=torn:nth=3")
        assert len(plan.rules) == 1
        rule = plan.rules[0]
        assert rule.point == "store.chunk_write"
        assert rule.mode == "torn"
        assert rule.nth == 3

    def test_seed_and_multiple_rules(self):
        plan = FaultPlan.parse(
            "seed=42;crawler.fetch:mode=rate_limit:p=0.1:retry_after=40;"
            "checkpoint.save:mode=bitflip:nth=2"
        )
        assert plan.seed == 42
        assert len(plan.rules) == 2
        assert plan.rules[0].params == {"retry_after": "40"}

    def test_newlines_are_rule_separators(self):
        plan = FaultPlan.parse(
            "store.chunk_write:mode=torn:nth=1\ncrawler.head:mode=timeout:nth=1"
        )
        assert len(plan.rules) == 2

    def test_window_trigger(self):
        plan = FaultPlan.parse("crawler.fetch:mode=timeout:window=10..20:every=1")
        assert plan.rules[0].window == (10.0, 20.0)

    def test_empty_spec_is_a_no_fault_plan(self):
        plan = FaultPlan.parse("")
        assert plan.rules == []
        assert plan.check("store.chunk_write") is None

    def test_unknown_faultpoint_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown faultpoint"):
            FaultPlan.parse("store.chunk_wriet:mode=torn:nth=1")

    def test_unsupported_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="does not support mode"):
            FaultPlan.parse("store.manifest_commit:mode=torn:nth=1")

    def test_missing_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="no mode"):
            FaultPlan.parse("store.chunk_write:nth=1")

    def test_malformed_field_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            FaultPlan.parse("store.chunk_write:mode=torn:nth")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="outside"):
            FaultPlan.parse("crawler.fetch:mode=timeout:p=1.5")


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        plan = FaultPlan.parse("pipeline.update:mode=crash:nth=3")
        fired = [plan.check("pipeline.update") is not None for _ in range(10)]
        assert fired == [False, False, True] + [False] * 7

    def test_every_fires_periodically(self):
        plan = FaultPlan.parse("crawler.fetch:mode=timeout:every=4")
        fired = [plan.check("crawler.fetch") is not None for _ in range(12)]
        assert fired == [False, False, False, True] * 3

    def test_times_caps_fires(self):
        plan = FaultPlan.parse("crawler.fetch:mode=timeout:every=2:times=2")
        fired = [plan.check("crawler.fetch") is not None for _ in range(10)]
        assert fired.count(True) == 2
        assert fired[1] and fired[3]

    def test_probability_is_deterministic(self):
        spec = "seed=9;crawler.fetch:mode=timeout:p=0.3"
        one = FaultPlan.parse(spec)
        two = FaultPlan.parse(spec)
        pattern_one = [one.check("crawler.fetch") is not None for _ in range(50)]
        pattern_two = [two.check("crawler.fetch") is not None for _ in range(50)]
        assert pattern_one == pattern_two
        assert 0 < pattern_one.count(True) < 50

    def test_probability_depends_on_seed(self):
        patterns = set()
        for seed in range(4):
            plan = FaultPlan.parse(f"seed={seed};crawler.fetch:mode=timeout:p=0.3")
            patterns.add(
                tuple(plan.check("crawler.fetch") is not None for _ in range(40))
            )
        assert len(patterns) > 1

    def test_window_only_fires_inside_the_interval(self):
        plan = FaultPlan.parse("crawler.fetch:mode=timeout:window=10..20:every=1:times=99")
        assert plan.check("crawler.fetch", now=5.0) is None
        assert plan.check("crawler.fetch", now=10.0) is not None
        assert plan.check("crawler.fetch", now=19.9) is not None
        assert plan.check("crawler.fetch", now=20.0) is None

    def test_window_never_matches_without_a_clock(self):
        plan = FaultPlan.parse("crawler.fetch:mode=timeout:window=0..1e9:every=1")
        assert plan.check("crawler.fetch") is None

    def test_triggers_combine_with_and_semantics(self):
        plan = FaultPlan.parse(
            "crawler.fetch:mode=timeout:every=2:window=100..200:times=99"
        )
        assert plan.check("crawler.fetch", now=50.0) is None  # hit 1: odd
        assert plan.check("crawler.fetch", now=50.0) is None  # hit 2: outside window
        assert plan.check("crawler.fetch", now=150.0) is None  # hit 3: odd
        assert plan.check("crawler.fetch", now=150.0) is not None  # hit 4: both

    def test_matching_rules_all_count_hits_first_fire_wins(self):
        plan = FaultPlan.parse(
            "crawler.fetch:mode=timeout:nth=2;crawler.fetch:mode=unavailable:nth=2"
        )
        assert plan.check("crawler.fetch") is None
        action = plan.check("crawler.fetch")
        assert action is not None and action.mode == "timeout"
        # The losing rule still counted both hits and consumed its fire
        # budget-free: it can never fire on hit 2 again.
        assert plan.rules[1].hits == 2

    def test_reset_rewinds_the_schedule(self):
        plan = FaultPlan.parse("pipeline.update:mode=crash:nth=1")
        assert plan.check("pipeline.update") is not None
        plan.reset()
        assert plan.events == []
        assert plan.check("pipeline.update") is not None


class TestActions:
    def test_torn_and_truncate_halve_the_blob(self):
        for mode in ("torn", "truncate"):
            plan = FaultPlan.parse(f"store.chunk_write:mode={mode}:nth=1")
            action = plan.check("store.chunk_write")
            assert action.corrupt(b"0123456789") == b"01234"

    def test_bitflip_changes_one_byte_same_length(self):
        plan = FaultPlan.parse("store.chunk_write:mode=bitflip:nth=1")
        action = plan.check("store.chunk_write")
        blob = bytes(range(64))
        mutated = action.corrupt(blob)
        assert len(mutated) == len(blob)
        assert sum(a != b for a, b in zip(blob, mutated)) == 1

    def test_bitflip_offset_is_deterministic(self):
        blobs = []
        for _ in range(2):
            plan = FaultPlan.parse("seed=5;checkpoint.save:mode=bitflip:nth=1")
            action = plan.check("checkpoint.save")
            blobs.append(action.corrupt(bytes(128)))
        assert blobs[0] == blobs[1]

    def test_endpoint_errors(self):
        cases = {
            "rate_limit": RateLimitExceeded,
            "unavailable": EndpointUnavailable,
            "timeout": RpcError,
            "garbage": RpcError,
        }
        for mode, exc_type in cases.items():
            plan = FaultPlan.parse(f"crawler.fetch:mode={mode}:nth=1")
            error = plan.check("crawler.fetch").endpoint_error()
            assert isinstance(error, exc_type)

    def test_rate_limit_carries_retry_after_param(self):
        plan = FaultPlan.parse("crawler.fetch:mode=rate_limit:nth=1:retry_after=55")
        error = plan.check("crawler.fetch").endpoint_error()
        assert error.retry_after == 55.0


class TestEventLog:
    def test_byte_identical_across_runs(self):
        spec = (
            "seed=3;crawler.fetch:mode=timeout:p=0.2;"
            "store.chunk_write:mode=torn:nth=2"
        )
        logs = []
        for _ in range(2):
            plan = FaultPlan.parse(spec)
            for hit in range(30):
                plan.check("crawler.fetch", now=float(hit))
                plan.check("store.chunk_write")
            plan.note("recovered")
            logs.append(plan.event_log())
        assert logs[0] == logs[1]
        assert logs[0]  # the schedule actually fired something

    def test_lines_are_sequenced_and_carry_the_clock(self):
        plan = FaultPlan.parse("crawler.fetch:mode=timeout:nth=1")
        plan.check("crawler.fetch", now=12.5)
        plan.note("recovered")
        lines = plan.event_log().splitlines()
        assert lines[0].startswith("00000 crawler.fetch mode=timeout hit=1 fire=1")
        assert "t=12.5" in lines[0]
        assert lines[1] == "00001 recovered"


class TestRegistry:
    def test_no_plan_is_a_no_op(self):
        with faults.use_plan(None):
            assert faults.check("store.chunk_write") is None
            faults.maybe_crash("pipeline.update")
            faults.raise_endpoint_fault("crawler.fetch")

    def test_use_plan_scopes_and_restores(self):
        plan = FaultPlan.parse("pipeline.update:mode=crash:nth=1")
        with faults.use_plan(plan):
            assert faults.active_plan() is plan
            with pytest.raises(InjectedCrash):
                faults.maybe_crash("pipeline.update")
        assert faults.active_plan() is not plan

    def test_unregistered_point_rejected_even_with_a_plan(self):
        with faults.use_plan(FaultPlan.parse("")):
            with pytest.raises(ConfigurationError, match="unregistered"):
                faults.check("store.not_a_point")

    def test_env_pickup(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "pipeline.update:mode=crash:nth=1")
        monkeypatch.setattr(faults, "_active", None)
        monkeypatch.setattr(faults, "_env_loaded", False)
        plan = faults.active_plan()
        assert plan is not None
        assert plan.rules[0].point == "pipeline.update"

    def test_explicit_install_beats_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "pipeline.update:mode=crash:nth=1")
        monkeypatch.setattr(faults, "_active", None)
        monkeypatch.setattr(faults, "_env_loaded", False)
        with faults.use_plan(None):
            assert faults.active_plan() is None

    def test_raise_endpoint_fault_crash_mode(self):
        plan = FaultPlan.parse("crawler.head:mode=crash:nth=1")
        with faults.use_plan(plan):
            with pytest.raises(InjectedCrash):
                faults.raise_endpoint_fault("crawler.head")
