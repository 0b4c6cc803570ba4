"""Sharded, checkpointed evaluation: planning, the store, and resume."""

from __future__ import annotations

import itertools
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import serialize
from repro.core.engine import SchedulerEngine
from repro.eval.experiments import iter_schedule_suite, schedule_suite
from repro.eval.shards import (
    DEFAULT_SHARD_SIZE,
    ResultStore,
    canonical_run_payload,
    encode_runs,
    iter_schedule_suite_sharded,
    lines_digest,
    plan_shards,
    report_digest,
    runs_digest,
)
from repro.session import Session
from repro.workloads.suite import WorkbenchSizeError, perfect_club_like_suite

N_LOOPS = 10
SHARD_SIZE = 3


@pytest.fixture(scope="module")
def workbench():
    return perfect_club_like_suite(n_loops=N_LOOPS, seed=2003)


@pytest.fixture(scope="module")
def uninterrupted(workbench):
    """Reference runs + canonical digest of an uninterrupted evaluation."""
    runs = schedule_suite(workbench, "S64")
    return runs, runs_digest(runs)


@pytest.fixture
def schedule_counter(monkeypatch):
    """Count every in-process engine scheduling call."""
    calls = []
    original = SchedulerEngine.schedule_loop

    def spy(self, loop):
        calls.append(loop.name)
        return original(self, loop)

    monkeypatch.setattr(SchedulerEngine, "schedule_loop", spy)
    return calls


class TestPlanning:
    def test_plan_is_deterministic(self, workbench):
        first = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        second = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        assert first == second
        assert [s.key for s in first.shards] == [s.key for s in second.shards]

    def test_plan_covers_every_position_once(self, workbench):
        plan = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        positions = list(
            itertools.chain.from_iterable(s.positions for s in plan.shards)
        )
        assert positions == list(range(N_LOOPS))
        assert len(plan.shards) == (N_LOOPS + SHARD_SIZE - 1) // SHARD_SIZE

    def test_keys_depend_on_configuration_and_knobs(self, workbench):
        base = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        other_rf = plan_shards(workbench, "4C16S16", shard_size=SHARD_SIZE)
        other_knob = plan_shards(
            workbench, "S64", shard_size=SHARD_SIZE, budget_ratio=2.0
        )
        other_policy = plan_shards(
            workbench, "S64", shard_size=SHARD_SIZE, scheduler="non_iterative"
        )
        keys = {tuple(s.key for s in plan.shards)
                for plan in (base, other_rf, other_knob, other_policy)}
        assert len(keys) == 4

    def test_shard_size_validation(self, workbench):
        with pytest.raises(ValueError):
            plan_shards(workbench, "S64", shard_size=0)


class TestResultStore:
    def test_round_trip_is_canonical(self, tmp_path, workbench, uninterrupted):
        runs, _digest = uninterrupted
        plan = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        store = ResultStore(tmp_path)
        shard = plan.shards[0]
        shard_runs = [runs[p] for p in shard.positions]
        store.put(shard, shard_runs, config_name=plan.config_name)
        restored = store.get(shard)
        assert restored is not None
        assert runs_digest(restored) == runs_digest(shard_runs)
        assert store.stats()["envelopes"] == 1

    def test_envelope_is_a_versioned_serialize_payload(
        self, tmp_path, workbench, uninterrupted
    ):
        runs, _digest = uninterrupted
        plan = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        store = ResultStore(tmp_path)
        shard = plan.shards[0]
        store.put(shard, [runs[p] for p in shard.positions])
        payload = json.loads(store.path_for(shard.key).read_text())
        serialize.validate(payload, expect_type="shard_result")
        assert payload["data"]["key"] == shard.key
        assert payload["data"]["positions"] == list(shard.positions)

    def test_corrupt_envelope_is_a_counted_miss(
        self, tmp_path, workbench, uninterrupted
    ):
        runs, _digest = uninterrupted
        plan = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        store = ResultStore(tmp_path)
        shard = plan.shards[0]
        store.put(shard, [runs[p] for p in shard.positions])
        store.path_for(shard.key).write_text("{ not json")
        with pytest.warns(RuntimeWarning, match=shard.key):
            assert store.get(shard) is None
        assert store.invalid == 1
        assert store.misses == 1

    def test_invalid_envelope_warns_once_with_the_shard_key(
        self, tmp_path, workbench, uninterrupted
    ):
        """A silently re-scheduled shard must not be *invisibly* silent.

        The first unusable envelope warns (naming the shard hash, so the
        store can be inspected); later ones are only counted -- a mostly
        corrupt store must not drown the run in one warning per shard.
        """
        runs, _digest = uninterrupted
        plan = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        store = ResultStore(tmp_path)
        first, second = plan.shards[0], plan.shards[1]
        for shard in (first, second):
            store.put(shard, [runs[p] for p in shard.positions])
            store.path_for(shard.key).write_text("{ not json")
        with pytest.warns(RuntimeWarning, match=first.key):
            assert store.get(first) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(second) is None
        assert store.invalid == 2

    def test_key_mismatch_is_rejected(self, tmp_path, workbench, uninterrupted):
        runs, _digest = uninterrupted
        plan = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        store = ResultStore(tmp_path)
        first, second = plan.shards[0], plan.shards[1]
        store.put(first, [runs[p] for p in first.positions])
        # Masquerade the first shard's envelope under the second's key.
        store.path_for(second.key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(second.key).write_text(
            store.path_for(first.key).read_text()
        )
        with pytest.warns(RuntimeWarning, match=second.key):
            assert store.get(second) is None
        assert store.invalid == 1

    def test_write_failure_is_nonfatal_and_warned(
        self, tmp_path, workbench, uninterrupted, monkeypatch
    ):
        import repro.eval.shards as shards_mod

        runs, _digest = uninterrupted
        plan = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        store = ResultStore(tmp_path)

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(shards_mod.os, "replace", broken_replace)
        with pytest.warns(RuntimeWarning, match="shard checkpoint"):
            store.put(plan.shards[0], [runs[p] for p in plan.shards[0].positions])
        assert store.write_failures == 1
        assert store.count() == 0


class TestShardedEvaluation:
    def test_cold_run_matches_plain_run_and_persists_all(
        self, tmp_path, workbench, uninterrupted
    ):
        _runs, reference = uninterrupted
        store = ResultStore(tmp_path)
        runs = schedule_suite(
            workbench, "S64", store=store, shard_size=SHARD_SIZE
        )
        assert runs_digest(runs) == reference
        plan = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        assert store.count() == len(plan.shards)

    def test_warm_run_schedules_nothing(
        self, tmp_path, workbench, uninterrupted, schedule_counter
    ):
        _runs, reference = uninterrupted
        store = ResultStore(tmp_path)
        schedule_suite(workbench, "S64", store=store, shard_size=SHARD_SIZE)
        scheduled_cold = len(schedule_counter)
        assert scheduled_cold == N_LOOPS
        runs = schedule_suite(
            workbench, "S64", store=store, shard_size=SHARD_SIZE
        )
        assert len(schedule_counter) == scheduled_cold  # zero new schedules
        assert runs_digest(runs) == reference

    def test_stream_marks_restored_runs_cached(self, tmp_path, workbench):
        store = ResultStore(tmp_path)
        list(iter_schedule_suite(
            workbench, "S64", store=store, shard_size=SHARD_SIZE
        ))
        flags = [
            cached
            for _pos, _run, cached in iter_schedule_suite(
                workbench, "S64", store=store, shard_size=SHARD_SIZE
            )
        ]
        assert flags == [True] * N_LOOPS

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(interrupt_after=st.integers(min_value=0, max_value=N_LOOPS - 1))
    def test_interrupted_resume_is_identical_and_schedules_no_completed_shard(
        self, tmp_path_factory, workbench, uninterrupted, interrupt_after
    ):
        """The resume contract, over every possible interruption point.

        An evaluation killed after ``interrupt_after`` loops, then
        resumed against the same store, must (a) schedule zero loops
        from shards that completed before the kill and (b) produce runs
        whose canonical (timing-normalized) serialized form is identical
        to an uninterrupted evaluation's.
        """
        _reference_runs, reference = uninterrupted
        tmp_path = tmp_path_factory.mktemp("ckpt")
        store = ResultStore(tmp_path)
        stream = iter_schedule_suite_sharded(
            workbench, "S64", store=store, shard_size=SHARD_SIZE
        )
        consumed = list(itertools.islice(stream, interrupt_after))
        stream.close()  # the "kill": abandon the evaluation mid-suite
        assert len(consumed) == interrupt_after

        completed = store.count()
        resume_store = ResultStore(tmp_path)  # a fresh process would
        scheduled: list = []
        original = SchedulerEngine.schedule_loop

        def spy(engine_self, loop):
            scheduled.append(loop.name)
            return original(engine_self, loop)

        SchedulerEngine.schedule_loop = spy
        try:
            resumed = [None] * N_LOOPS
            for pos, run, _cached in iter_schedule_suite_sharded(
                workbench, "S64", store=resume_store, shard_size=SHARD_SIZE
            ):
                resumed[pos] = run
        finally:
            SchedulerEngine.schedule_loop = original

        plan = plan_shards(workbench, "S64", shard_size=SHARD_SIZE)
        loops_in_completed = sum(
            len(shard.positions) for shard in plan.shards[:completed]
        )
        # (a) completed shards schedule nothing on resume...
        assert len(scheduled) == N_LOOPS - loops_in_completed
        restored_names = {
            workbench[p].name
            for shard in plan.shards[:completed]
            for p in shard.positions
        }
        assert restored_names.isdisjoint(scheduled)
        # ...and (b) the merged (restored + fresh) result is canonically
        # identical to the uninterrupted evaluation.
        assert runs_digest(resumed) == reference


class TestCanonicalLines:
    def test_one_encode_feeds_the_digests_and_the_payloads(self, uninterrupted):
        runs, reference = uninterrupted
        payloads, lines = encode_runs(runs)
        assert lines_digest(lines) == reference
        assert lines == [
            json.dumps(canonical_run_payload(run), sort_keys=True).encode() + b"\n"
            for run in runs
        ]
        # The digest zeroes the wall-clock in a copy: the payloads a job
        # serves keep each run's real scheduling time.
        assert payloads == [serialize.loop_run_to_dict(run) for run in runs]
        assert any(payload["result"]["scheduling_time_s"] for payload in payloads)


class TestSessionCheckpointing:
    def test_session_reports_are_bit_identical_across_resume(
        self, tmp_path, workbench
    ):
        with Session(checkpoint=tmp_path / "ck", shard_size=SHARD_SIZE) as s:
            cold = s.evaluate_configuration("S64", loops=workbench)
        with Session(checkpoint=tmp_path / "ck", shard_size=SHARD_SIZE) as s:
            warm = s.evaluate_configuration("S64", loops=workbench)
            assert s.checkpoint.hits == len(
                plan_shards(workbench, "S64", shard_size=SHARD_SIZE).shards
            )
        # Bit-identical modulo wall-clock: the canonical serialized
        # payloads (timing zeroed) must match exactly, not just digests.
        cold_payload = [canonical_run_payload(r) for r in cold.runs]
        warm_payload = [canonical_run_payload(r) for r in warm.runs]
        assert cold_payload == warm_payload
        assert report_digest(cold) == report_digest(warm)

    def test_session_stats_expose_checkpoint_counters(self, tmp_path, workbench):
        with Session(checkpoint=tmp_path / "ck", shard_size=SHARD_SIZE) as s:
            s.evaluate_configuration("S64", loops=workbench)
            stats = s.stats()
        assert stats["checkpoint"]["stores"] > 0

    def test_evaluate_stream_resumes_from_checkpoint(self, tmp_path, workbench):
        with Session(checkpoint=tmp_path / "ck", shard_size=SHARD_SIZE) as s:
            list(s.evaluate_stream("S64", loops=workbench))
        with Session(checkpoint=tmp_path / "ck", shard_size=SHARD_SIZE) as s:
            runs = list(s.evaluate_stream("S64", loops=workbench))
            assert s.checkpoint.hits > 0 and s.checkpoint.stores == 0
        assert len(runs) == N_LOOPS

    def test_tier_overflow_raises_through_session(self):
        with Session() as s:
            with pytest.raises(WorkbenchSizeError, match="available tiers"):
                s.evaluate_configuration("S64", n_loops=100, tier="small")

    def test_default_shard_size_is_sane(self):
        assert 1 <= DEFAULT_SHARD_SIZE <= 256


class TestRoundThreeRegressions:
    """Review fixes: early jobs validation, single pool, no mkdir on --resume."""

    def test_negative_jobs_fails_up_front_even_when_fully_checkpointed(
        self, tmp_path, workbench
    ):
        store = ResultStore(tmp_path)
        schedule_suite(workbench, "S64", store=store, shard_size=SHARD_SIZE)
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            list(iter_schedule_suite(
                workbench, "S64", jobs=-2, store=store, shard_size=SHARD_SIZE
            ))

    def test_sharded_parallel_run_creates_one_pool(
        self, tmp_path, workbench, monkeypatch
    ):
        import repro.eval.parallel as parallel_mod
        import repro.eval.shards as shards_mod
        from concurrent.futures import ThreadPoolExecutor

        created = []

        def counting_pool(max_workers=None):
            created.append(max_workers)
            # Threads, not processes: cheap, and the scheduler is pure
            # Python so results are identical.
            return ThreadPoolExecutor(max_workers=max_workers)

        monkeypatch.setattr(shards_mod, "ProcessPoolExecutor", counting_pool,
                            raising=False)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", counting_pool)
        store = ResultStore(tmp_path)
        runs = schedule_suite(
            workbench, "S64", jobs=2, store=store, shard_size=SHARD_SIZE
        )
        assert len(runs) == N_LOOPS
        # 4 shards scheduled, but exactly one pool for the whole suite.
        assert created == [2]
