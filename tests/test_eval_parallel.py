"""Tests for the parallel scheduling engine and the evaluation cache.

The contract under test:

* ``schedule_suite(..., jobs=N)`` returns results *identical* to the
  serial path (same schedules, same metrics, same order) for any N;
* a warm :class:`~repro.eval.cache.EvalCache` makes re-evaluation skip
  the scheduler entirely (asserted with a spy on
  :meth:`SchedulerEngine.schedule_loop`);
* cache keys are content-addressed: they survive regenerating the same
  workbench, and change whenever the loop, the configuration or any
  scheduling knob changes.
"""

import pytest

from repro import api
from repro.core.engine import SchedulerEngine
from repro.eval.cache import EvalCache, schedule_key
from repro.eval.experiments import schedule_suite
from repro.eval.parallel import chunk_indices, resolve_jobs
from repro.machine.presets import baseline_machine, config_by_name
from repro.simulator.prefetch import PrefetchPolicy
from repro.workloads.suite import perfect_club_like_suite, tiny_suite

SEED = 2003


def run_signature(run):
    """Every deterministic field of one LoopRun (wall time excluded)."""
    result = run.result
    return (
        run.loop.name,
        run.loop.fingerprint(),
        result.loop_name,
        result.config_name,
        result.success,
        result.ii,
        result.mii,
        result.stage_count,
        tuple(
            sorted(
                (node_id, placed.op.mnemonic, placed.cycle, placed.cluster)
                for node_id, placed in result.assignments.items()
            )
        ),
        tuple(sorted(result.register_usage.items())),
        result.memory_ops_per_iteration,
        result.n_spill_memory_ops,
        result.n_comm_ops,
        result.restarts,
        result.bound,
        run.cycles,
        run.traffic,
        run.time_ns,
    )


def signatures(runs):
    return [run_signature(run) for run in runs]


@pytest.fixture
def schedule_calls(monkeypatch):
    """Count every in-process SchedulerEngine.schedule_loop invocation."""
    calls = {"n": 0}
    original = SchedulerEngine.schedule_loop

    def spy(self, loop):
        calls["n"] += 1
        return original(self, loop)

    monkeypatch.setattr(SchedulerEngine, "schedule_loop", spy)
    return calls


# --------------------------------------------------------------------------- #
# Parallel execution
# --------------------------------------------------------------------------- #
class TestParallelIdentity:
    def test_jobs4_identical_on_64_loop_workbench(self):
        loops = perfect_club_like_suite(64, seed=SEED)
        serial = schedule_suite(loops, "S64")
        parallel = schedule_suite(loops, "S64", jobs=4)
        assert signatures(parallel) == signatures(serial)

    def test_parallel_identical_on_hierarchical_config(self):
        # The hierarchical clustered path exercises communication
        # insertion and spilling, the code most sensitive to ordering.
        loops = tiny_suite()[:10]
        serial = schedule_suite(loops, "4C16S16")
        parallel = schedule_suite(loops, "4C16S16", jobs=2)
        assert signatures(parallel) == signatures(serial)

    def test_parallel_identical_with_prefetch(self):
        loops = tiny_suite()[:6]
        policy = PrefetchPolicy(enabled=True)
        serial = schedule_suite(loops, "4C32S16", prefetch=policy)
        parallel = schedule_suite(loops, "4C32S16", prefetch=policy, jobs=2)
        assert signatures(parallel) == signatures(serial)

    def test_results_stay_in_workbench_order(self):
        loops = tiny_suite()[:8]
        runs = schedule_suite(loops, "S64", jobs=3)
        assert [run.loop.name for run in runs] == [loop.name for loop in loops]

    def test_unknown_scheduler_rejected_before_fanout(self):
        loops = tiny_suite()[:2]
        with pytest.raises(ValueError):
            schedule_suite(loops, "S64", scheduler="bogus", jobs=2)

    def test_jobs1_never_touches_the_pool(self, monkeypatch):
        import repro.eval.parallel as parallel_mod

        class Boom:  # pragma: no cover - failure path
            def __init__(self, *args, **kwargs):
                raise AssertionError("jobs=1 must stay off the process pool")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", Boom)
        loops = tiny_suite()[:3]
        runs = schedule_suite(loops, "S64", jobs=1)
        assert len(runs) == 3


class TestJobsAndChunks:
    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) == resolve_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_chunk_indices_partition_in_order(self):
        for n_items, n_chunks in [(10, 3), (5, 5), (3, 8), (1, 1), (16, 4)]:
            chunks = chunk_indices(n_items, n_chunks)
            flattened = [i for chunk in chunks for i in chunk]
            assert flattened == list(range(n_items))
            sizes = [len(chunk) for chunk in chunks]
            assert max(sizes) - min(sizes) <= 1


# --------------------------------------------------------------------------- #
# Caching
# --------------------------------------------------------------------------- #
class TestEvalCache:
    def test_warm_cache_skips_scheduling(self, schedule_calls):
        loops = tiny_suite()[:6]
        cache = EvalCache()
        cold = schedule_suite(loops, "S64", cache=cache)
        assert schedule_calls["n"] == len(loops)
        warm = schedule_suite(loops, "S64", cache=cache)
        assert schedule_calls["n"] == len(loops)  # zero new calls
        assert signatures(warm) == signatures(cold)
        assert cache.hits == len(loops)
        assert cache.stores == len(loops)

    def test_partially_warm_cache_schedules_only_misses(self, schedule_calls):
        loops = tiny_suite()[:8]
        cache = EvalCache()
        schedule_suite(loops[:4], "S64", cache=cache)
        assert schedule_calls["n"] == 4
        runs = schedule_suite(loops, "S64", cache=cache)
        assert schedule_calls["n"] == 8  # only the 4 missing loops
        assert [run.loop.name for run in runs] == [loop.name for loop in loops]

    def test_duplicate_problems_in_one_call_scheduled_once(self, schedule_calls):
        loop = tiny_suite()[0]
        cache = EvalCache()
        runs = schedule_suite([loop, loop.copy(), loop.copy()], "S64", cache=cache)
        assert schedule_calls["n"] == 1  # one representative per unique problem
        assert len(runs) == 3
        assert signatures(runs)[0] == signatures(runs)[1] == signatures(runs)[2]

    def test_cache_is_regeneration_stable(self, schedule_calls):
        # The same (seed, n) workbench built twice produces the same keys,
        # so a cache warmed by one build serves the other.
        cache = EvalCache()
        schedule_suite(perfect_club_like_suite(6, seed=SEED), "S64", cache=cache)
        before = schedule_calls["n"]
        schedule_suite(perfect_club_like_suite(6, seed=SEED), "S64", cache=cache)
        assert schedule_calls["n"] == before

    def test_warm_compare_configurations_zero_schedule_calls(self, schedule_calls):
        cache = EvalCache()
        cold = api.compare_configurations(
            ["S64", "4C16S16"], n_loops=4, seed=SEED, cache=cache
        )
        assert schedule_calls["n"] > 0
        calls_after_cold = schedule_calls["n"]
        warm = api.compare_configurations(
            ["S64", "4C16S16"], n_loops=4, seed=SEED, cache=cache
        )
        assert schedule_calls["n"] == calls_after_cold  # zero new calls
        assert warm["ranking"] == cold["ranking"]
        for name, report in warm["reports"].items():
            assert signatures(report.runs) == signatures(cold["reports"][name].runs)

    def test_parallel_run_populates_cache(self, schedule_calls):
        loops = tiny_suite()[:6]
        cache = EvalCache()
        cold = schedule_suite(loops, "S64", jobs=2, cache=cache)
        assert cache.stores == len(loops)
        warm = schedule_suite(loops, "S64", cache=cache)
        # All scheduling happened in worker processes (cold) or not at all
        # (warm): the in-process scheduler was never invoked.
        assert schedule_calls["n"] == 0
        assert signatures(warm) == signatures(cold)

    def test_disk_cache_survives_a_fresh_process_view(self, tmp_path, schedule_calls):
        loops = tiny_suite()[:4]
        schedule_suite(loops, "S64", cache=EvalCache(tmp_path))
        assert schedule_calls["n"] == 4
        # A brand-new cache object only shares the directory -- like a
        # second CLI invocation with the same --cache DIR.
        fresh = EvalCache(tmp_path)
        schedule_suite(loops, "S64", cache=fresh)
        assert schedule_calls["n"] == 4  # served from disk
        assert fresh.hits == 4

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, schedule_calls):
        loops = tiny_suite()[:1]
        cache = EvalCache(tmp_path)
        schedule_suite(loops, "S64", cache=cache)
        for path in tmp_path.rglob("*.pkl"):
            path.write_bytes(b"not a pickle")
        fresh = EvalCache(tmp_path)
        runs = schedule_suite(loops, "S64", cache=fresh)
        assert runs[0].result.success
        assert schedule_calls["n"] == 2  # re-scheduled after the bad read

    def test_disk_write_failures_are_counted_and_warn_once(
        self, tmp_path, monkeypatch
    ):
        import pickle
        import warnings

        loops = tiny_suite()[:2]
        cache = EvalCache(tmp_path)

        def broken_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pickle, "dump", broken_dump)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            schedule_suite(loops, "S64", cache=cache)
        runtime_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        # Every failed write is counted, but only the first one warns.
        assert cache.write_failures == 2
        assert len(runtime_warnings) == 1
        assert "could not persist" in str(runtime_warnings[0].message)
        # The failure is non-fatal: the in-memory tier still serves hits,
        # and the counter is observable through stats().
        stats = cache.stats()
        assert stats["write_failures"] == 2
        assert stats["stores"] == 2
        assert cache.get(next(iter(cache._memory))) is not None

    def test_successful_writes_do_not_count_as_failures(self, tmp_path):
        loops = tiny_suite()[:1]
        cache = EvalCache(tmp_path)
        schedule_suite(loops, "S64", cache=cache)
        assert cache.write_failures == 0
        assert cache.stats()["write_failures"] == 0


class TestCacheKeys:
    def setup_method(self):
        self.loops = tiny_suite()[:2]
        self.machine = baseline_machine()
        self.rf = config_by_name("4C16S16")

    def key(self, loop=None, rf=None, machine=None, **kwargs):
        return schedule_key(
            loop if loop is not None else self.loops[0],
            rf if rf is not None else self.rf,
            machine if machine is not None else self.machine,
            **kwargs,
        )

    def test_key_is_stable_for_equal_content(self):
        assert self.key() == self.key()
        assert self.key(loop=self.loops[0].copy()) == self.key()

    def test_key_changes_with_loop(self):
        assert self.key(loop=self.loops[1]) != self.key()
        mutated = self.loops[0].copy()
        mutated.trip_count += 1
        assert self.key(loop=mutated) != self.key()

    def test_key_changes_with_graph_structure(self):
        mutated = self.loops[0].copy()
        ids = mutated.graph.node_ids()
        edge = next(iter(mutated.graph.edges()))
        mutated.graph.remove_edge(edge.src, edge.dst)
        assert mutated.graph.node_ids() == ids  # only the edge changed
        assert self.key(loop=mutated) != self.key()

    def test_key_changes_with_configuration(self):
        assert self.key(rf=config_by_name("S64")) != self.key()
        assert self.key(rf=self.rf.with_ports(2, 2)) != self.key()
        assert self.key(machine=self.machine.scaled(n_fus=4, n_mem_ports=2)) != self.key()

    def test_key_changes_with_scheduling_knobs(self):
        assert self.key(budget_ratio=2.0) != self.key()
        assert self.key(scheduler="non_iterative") != self.key()
        assert self.key(scale_to_clock=False) != self.key()
        assert self.key(prefetch=PrefetchPolicy()) != self.key()
        assert self.key(prefetch=PrefetchPolicy(min_trip_count=8)) != self.key(
            prefetch=PrefetchPolicy()
        )

    def test_ineffective_prefetch_shares_the_key(self):
        # A disabled policy, and any policy without clock scaling, do the
        # same scheduling work as no policy -- same problem, same key.
        assert self.key(prefetch=PrefetchPolicy(enabled=False)) == self.key()
        assert self.key(
            prefetch=PrefetchPolicy(), scale_to_clock=False
        ) == self.key(scale_to_clock=False)

    def test_empty_cache_is_truthy(self):
        # __len__ would otherwise make an empty cache falsy, and
        # ``cache or EvalCache()`` call sites would drop it silently.
        assert EvalCache()


class TestLoopFingerprint:
    def test_copy_preserves_fingerprint(self):
        loop = tiny_suite()[0]
        assert loop.copy().fingerprint() == loop.fingerprint()

    def test_metadata_changes_fingerprint(self):
        loop = tiny_suite()[0].copy()
        base = loop.fingerprint()
        loop.times_entered += 1
        assert loop.fingerprint() != base

    def test_latency_override_changes_fingerprint(self):
        # Binding prefetching rewrites load latencies in place; the cache
        # must see prefetched and non-prefetched bodies as different loops.
        loop = tiny_suite()[0].copy()
        base = loop.fingerprint()
        load = next(op for op in loop.graph.nodes() if op.op.mnemonic == "load")
        loop.graph.set_latency_override(load.node_id, 99)
        assert loop.fingerprint() != base
