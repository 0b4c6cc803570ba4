"""The benchmark runner and the BENCH_*.json comparison gate."""

from __future__ import annotations

import copy

import pytest

from repro.eval.bench import (
    BENCH_SCHEMA_VERSION,
    compare_bench,
    run_workbench_bench,
)


@pytest.fixture(scope="module")
def record():
    """One real (tiny, fast) benchmark record shared by the tests."""
    return run_workbench_bench(tier="tiny", configs=("S64",), shard_size=8)


class TestRunner:
    def test_record_shape(self, record):
        assert record["kind"] == "workbench"
        assert record["schema"] == BENCH_SCHEMA_VERSION
        assert record["tier"] == "tiny"
        assert record["n_loops"] == 16
        entry = record["configs"]["S64"]
        assert entry["n_shards"] == 2
        assert entry["cold"]["wall_s"] > 0
        assert entry["cold"]["loops_per_s"] > 0
        assert entry["cold"]["n_failed"] == 0

    def test_resume_pass_restores_every_shard(self, record):
        entry = record["configs"]["S64"]
        assert entry["cold"]["store"]["stores"] == entry["n_shards"]
        assert entry["resume"]["store"]["hits"] == entry["n_shards"]
        assert entry["resume"]["store"]["stores"] == 0

    def test_resume_is_identical(self, record):
        entry = record["configs"]["S64"]
        assert entry["resume_identical"] is True
        assert entry["cold"]["digest"] == entry["resume"]["digest"]
        assert record["totals"]["resume_identical"] is True

    def test_persistent_checkpoint_dir_survives(self, tmp_path):
        first = run_workbench_bench(
            tier="tiny", configs=("S64",), shard_size=8,
            checkpoint_dir=tmp_path,
        )
        # A second bench against the same directory starts warm: even the
        # "cold" pass restores every shard.
        second = run_workbench_bench(
            tier="tiny", configs=("S64",), shard_size=8,
            checkpoint_dir=tmp_path,
        )
        assert second["configs"]["S64"]["cold"]["store"]["hits"] == 2
        assert (
            second["configs"]["S64"]["cold"]["digest"]
            == first["configs"]["S64"]["cold"]["digest"]
        )

    def test_oversized_loops_raise(self):
        from repro.workloads.suite import WorkbenchSizeError

        with pytest.raises(WorkbenchSizeError):
            run_workbench_bench(tier="tiny", configs=("S64",), n_loops=100)


class TestWorkbenchGate:
    def test_identical_records_pass(self, record):
        problems, notes = compare_bench(record, record)
        assert problems == []
        assert notes == []

    def test_wall_clock_regression_fails(self, record):
        # Pin the baseline above the noise floor so the relative check
        # actually applies (sub-noise timings are deliberately ungated).
        base = copy.deepcopy(record)
        base["configs"]["S64"]["cold"]["wall_s"] = 1.0
        slow = copy.deepcopy(base)
        slow["configs"]["S64"]["cold"]["wall_s"] = 2.0
        problems, _notes = compare_bench(base, slow, tolerance=0.25)
        assert any("wall-clock regressed" in p for p in problems)

    def test_wall_clock_within_tolerance_passes(self, record):
        base = copy.deepcopy(record)
        base["configs"]["S64"]["cold"]["wall_s"] = 1.0
        slightly = copy.deepcopy(base)
        slightly["configs"]["S64"]["cold"]["wall_s"] = 1.10
        problems, _notes = compare_bench(base, slightly, tolerance=0.25)
        assert problems == []

    def test_lost_resume_identity_fails(self, record):
        broken = copy.deepcopy(record)
        broken["configs"]["S64"]["resume_identical"] = False
        problems, _notes = compare_bench(record, broken)
        assert any("bit-identical" in p for p in problems)

    def test_new_scheduling_failures_fail(self, record):
        failing = copy.deepcopy(record)
        failing["configs"]["S64"]["cold"]["n_failed"] = 3
        problems, _notes = compare_bench(record, failing)
        assert any("failed to schedule" in p for p in problems)

    def test_sum_ii_change_is_a_note_not_a_failure(self, record):
        changed = copy.deepcopy(record)
        changed["configs"]["S64"]["cold"]["sum_ii"] += 1
        problems, notes = compare_bench(record, changed)
        assert problems == []
        assert any("sum II changed" in n for n in notes)

    def test_changed_digest_fails_on_the_same_workbench(self, record):
        changed = copy.deepcopy(record)
        changed["configs"]["S64"]["cold"]["digest"] = "0" * 64
        problems, _notes = compare_bench(record, changed)
        assert any("schedules changed" in p for p in problems)
        # Another workbench schedules other loops: its digest cannot match.
        changed["seed"] += 1
        problems, _notes = compare_bench(record, changed)
        assert problems == []

    def test_missing_config_fails(self, record):
        gutted = copy.deepcopy(record)
        del gutted["configs"]["S64"]
        problems, _notes = compare_bench(record, gutted)
        assert any("missing" in p for p in problems)


class TestSchedulerGate:
    """The gate also understands the scheduler microbench record."""

    BASELINE = {
        "schema": 1,
        "incremental": {"full_sweeps": 0, "wall_s": 0.8},
        "kernels": {
            "daxpy@S64": {"full_sweeps": 0, "ii": 1, "wall_s": 0.0005},
        },
    }

    def test_identical_passes(self):
        problems, _notes = compare_bench(self.BASELINE, self.BASELINE)
        assert problems == []

    def test_any_full_sweep_increase_fails(self):
        fresh = copy.deepcopy(self.BASELINE)
        fresh["incremental"]["full_sweeps"] = 1
        problems, _notes = compare_bench(self.BASELINE, fresh)
        assert any("full sweeps increased" in p for p in problems)

    def test_wall_clock_regression_fails(self):
        fresh = copy.deepcopy(self.BASELINE)
        fresh["incremental"]["wall_s"] = 2.0
        problems, _notes = compare_bench(self.BASELINE, fresh, tolerance=0.25)
        assert any("wall-clock regressed" in p for p in problems)

    def test_small_wall_clock_noise_passes(self):
        fresh = copy.deepcopy(self.BASELINE)
        fresh["incremental"]["wall_s"] *= 1.2
        fresh["kernels"]["daxpy@S64"]["wall_s"] *= 1.2
        problems, _notes = compare_bench(self.BASELINE, fresh, tolerance=0.25)
        assert problems == []

    def test_missing_counter_fails(self):
        fresh = copy.deepcopy(self.BASELINE)
        del fresh["kernels"]["daxpy@S64"]
        problems, _notes = compare_bench(self.BASELINE, fresh)
        assert any("missing" in p for p in problems)


class TestGateNoiseHandling:
    """Review fixes: noise floor + warm-started passes are not gated."""

    def test_sub_noise_wall_clock_is_never_gated(self, record):
        import copy as _copy

        base = _copy.deepcopy(record)
        base["configs"]["S64"]["cold"]["wall_s"] = 0.010
        fresh = _copy.deepcopy(base)
        fresh["configs"]["S64"]["cold"]["wall_s"] = 0.020  # 2x, but noise
        problems, _notes = compare_bench(base, fresh, tolerance=0.25)
        assert problems == []

    def test_warm_started_cold_pass_is_noted_not_gated(self, record):
        import copy as _copy

        fresh = _copy.deepcopy(record)
        fresh["configs"]["S64"]["cold"]["wall_s"] = 999.0
        fresh["configs"]["S64"]["cold"]["warm_start"] = True
        problems, notes = compare_bench(record, fresh, tolerance=0.25)
        assert problems == []
        assert any("warm-started" in n for n in notes)

    def test_cold_pass_records_warm_start_flag(self, record, tmp_path):
        first = run_workbench_bench(
            tier="tiny", configs=("S64",), shard_size=8,
            checkpoint_dir=tmp_path,
        )
        assert first["configs"]["S64"]["cold"]["warm_start"] is False
        second = run_workbench_bench(
            tier="tiny", configs=("S64",), shard_size=8,
            checkpoint_dir=tmp_path,
        )
        assert second["configs"]["S64"]["cold"]["warm_start"] is True
