"""Cross-II/cross-config reuse layer: analysis cache, informed II
search, probe memoization, and the eval-cache LRU bound.

* :class:`~repro.core.analysis_cache.AnalysisCache` serves RecMII /
  ResMII / priority-order products across II attempts and machine
  configurations, with LRU-bounded storage and observable counters.
* The ``informed`` II-search policy consumes the engine's structured
  :class:`~repro.core.policy.FailureDiagnosis` and abandons the search
  only on a sound unschedulability certificate -- a hypothesis
  differential against the linear search proves it never passes over a
  schedulable II, and a pinned zero-port regression exercises the
  certificate (with its ``skipped:`` audit entry in ``attempted_iis``).
* The reservation table's probe memo is counted on every result
  (``n_slot_probes`` / ``n_probe_memo_hits``) and none of the new
  counters leak into the serialized payload (they are process-local
  telemetry; the schedule digests must not see them).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import serialize
from repro.core import MirsHC, SchedulerEngine
from repro.core.analysis_cache import (
    AnalysisCache,
    machine_token,
    shared_analysis_cache,
)
from repro.core.policy import (
    FailureDiagnosis,
    InformedIISearch,
    LinearIISearch,
    ii_search_policy,
)
from repro.ddg import compute_mii
from repro.eval.cache import EvalCache
from repro.hwmodel import scaled_machine
from repro.machine import ResourceModel, baseline_machine, config_by_name
from repro.workloads import build_kernel
from repro.workloads.generator import PROFILES, generate_loop


def scaled(config_name):
    rf = config_by_name(config_name)
    machine, _ = scaled_machine(baseline_machine(), rf)
    return machine, rf


# --------------------------------------------------------------------------- #
# AnalysisCache
# --------------------------------------------------------------------------- #
class TestAnalysisCache:
    def test_mii_reuse_and_value_identity(self):
        machine, rf = scaled("4C16S16")
        resources = ResourceModel(machine, rf)
        loop = build_kernel("equation_of_state")
        cache = AnalysisCache()

        first, reused_first = cache.mii(loop.graph, resources, machine, rf)
        assert reused_first == 0
        assert first == compute_mii(loop.graph, resources, machine.latency)

        again, reused_again = cache.mii(loop.graph, resources, machine, rf)
        assert again == first
        # Both the recurrence analysis and the resource analysis hit.
        assert reused_again == 2

    def test_rec_mii_shared_across_configs(self):
        # RecMII depends only on graph + latencies: two register-file
        # organizations over the same datapath share it, while the
        # (machine, rf)-keyed ResMII is recomputed for the second one.
        loop = build_kernel("equation_of_state")
        cache = AnalysisCache()
        machine = baseline_machine()
        rf_a = config_by_name("4C16S16")
        rf_b = config_by_name("S32")
        assert machine_token(machine) == machine_token(machine)
        cache.mii(loop.graph, ResourceModel(machine, rf_a), machine, rf_a)
        _, reused = cache.mii(loop.graph, ResourceModel(machine, rf_b),
                              machine, rf_b)
        assert reused == 1  # rec hit, res miss

    def test_order_reuse(self):
        machine, rf = scaled("S64")
        loop = build_kernel("daxpy")
        cache = AnalysisCache()
        calls = []

        def order_fn(graph, latency_of):
            calls.append(len(graph))
            return sorted(n.node_id for n in graph.nodes())

        first, reused = cache.order(loop.graph, machine, "test_order", order_fn)
        assert reused == 0 and calls
        second, reused = cache.order(loop.graph, machine, "test_order", order_fn)
        assert second == first
        assert reused == 1 and len(calls) == 1  # not recomputed

    def test_lru_bound_and_stats(self):
        machine, rf = scaled("S64")
        cache = AnalysisCache(max_entries=2)
        for kernel in ("daxpy", "equation_of_state", "tridiagonal"):
            loop = build_kernel(kernel)
            cache.order(loop.graph, machine, "o",
                        lambda g, latency_of: sorted(n.node_id for n in g.nodes()))
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["max_entries"] == 2
        assert stats["evictions"] == 1
        assert stats["misses"] == 3
        cache.clear()
        assert cache.stats()["entries"] == 0

    def test_engine_reuses_across_repeated_loops(self):
        machine, rf = scaled("4C16S16")
        loop = build_kernel("equation_of_state")
        cache = AnalysisCache()
        cold = MirsHC(machine, rf, analysis_cache=cache).schedule_loop(loop.copy())
        warm = MirsHC(machine, rf, analysis_cache=cache).schedule_loop(loop.copy())
        plain = MirsHC(machine, rf).schedule_loop(loop.copy())
        assert cold.n_analysis_reuses == 0
        assert warm.n_analysis_reuses > 0
        # The cache changes where analysis comes from, never its outcome.
        for result in (cold, warm):
            assert (result.ii, result.stage_count,
                    sorted(result.register_usage.items())) == (
                plain.ii, plain.stage_count,
                sorted(plain.register_usage.items()))

    def test_shared_instance_is_a_singleton(self):
        assert shared_analysis_cache() is shared_analysis_cache()


# --------------------------------------------------------------------------- #
# Informed II search
# --------------------------------------------------------------------------- #
hypothesis_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_loops(draw):
    profile = PROFILES[draw(st.sampled_from(sorted(PROFILES)))]
    seed = draw(st.integers(min_value=0, max_value=5_000))
    rng = np.random.default_rng(seed)
    return generate_loop(rng, profile, index=0, name=f"hyp_{seed}")


class TestInformedIISearch:
    def test_registered(self):
        # The registry stores policy *classes*; the engine instantiates
        # one per schedule_loop call.
        assert ii_search_policy("informed") is InformedIISearch
        assert InformedIISearch().wants_diagnosis
        assert not LinearIISearch().wants_diagnosis

    def test_advances_linearly_without_certificate(self):
        search = InformedIISearch()
        search.observe_failure(FailureDiagnosis(ii=7, reason="attempt_failed"))
        assert search.next_ii(7, 1) == 8
        assert search.skip_note is None

    def test_aborts_on_certificate(self):
        search = InformedIISearch()
        search.observe_failure(FailureDiagnosis(
            ii=7, reason="zero_capacity_resource",
            unschedulable_at_all_iis=True, detail="node 3 needs MEM"))
        assert search.next_ii(7, 1) == InformedIISearch.ABANDON
        assert search.skip_note.startswith("skipped:8..:")

    @given(random_loops(), st.sampled_from(["S64", "4C16S16", "2C32S32"]))
    @hypothesis_settings
    def test_informed_equals_linear(self, loop, config_name):
        """The jump never passes over a schedulable II.

        On capacity-complete datapaths no certificate exists, so the
        informed search must reproduce the linear search exactly: same
        success, same final II, same attempt trail, same schedule
        shape -- and never more attempts.
        """
        machine, rf = scaled(config_name)
        linear = SchedulerEngine(
            machine, rf, policy="mirs_linear_ii", max_ii=64
        ).schedule_loop(loop.copy())
        informed = SchedulerEngine(
            machine, rf, policy="mirs_informed_ii", max_ii=64
        ).schedule_loop(loop.copy())

        informed_attempts = [ii for ii in informed.attempted_iis
                             if isinstance(ii, int)]
        linear_attempts = [ii for ii in linear.attempted_iis
                           if isinstance(ii, int)]
        assert informed.success == linear.success
        assert informed.ii == linear.ii
        assert len(informed_attempts) <= len(linear_attempts)
        assert informed_attempts == linear_attempts
        if linear.success:
            assert (informed.stage_count,
                    sorted(informed.register_usage.items())) == (
                linear.stage_count, sorted(linear.register_usage.items()))

    def test_zero_port_certificate_pin(self):
        """Pinned regression: a compute-only datapath (``n_mem_ports=0``)
        can never place a memory operation.  The linear search grinds
        through every II up to the ceiling; the informed search proves
        unschedulability after one failure and records the skipped range
        in the audit trail."""
        rf = config_by_name("S64")
        machine = replace(baseline_machine(), n_mem_ports=0)
        loop = build_kernel("daxpy")  # has loads and stores
        max_ii = 12

        linear = SchedulerEngine(
            machine, rf, policy="mirs_linear_ii", max_ii=max_ii
        ).schedule_loop(loop.copy())
        informed = SchedulerEngine(
            machine, rf, policy="mirs_informed_ii", max_ii=max_ii
        ).schedule_loop(loop.copy())

        assert not linear.success and not informed.success
        linear_attempts = [ii for ii in linear.attempted_iis
                           if isinstance(ii, int)]
        informed_attempts = [ii for ii in informed.attempted_iis
                             if isinstance(ii, int)]
        assert len(linear_attempts) > 1  # the grind the cache removes
        assert len(informed_attempts) == 1
        assert informed.ii == informed_attempts[-1]  # an int, not a note

        notes = [e for e in informed.attempted_iis if isinstance(e, str)]
        assert len(notes) == 1
        assert notes[0].startswith(f"skipped:{informed_attempts[0] + 1}..:")
        assert "zero" in notes[0] or "capacity" in notes[0] or notes[0]

    def test_skip_note_survives_serialization(self):
        rf = config_by_name("S64")
        machine = replace(baseline_machine(), n_mem_ports=0)
        result = SchedulerEngine(
            machine, rf, policy="mirs_informed_ii", max_ii=12
        ).schedule_loop(build_kernel("daxpy"))
        payload = serialize.to_dict(result)
        restored = serialize.from_dict(payload)
        assert restored.attempted_iis == result.attempted_iis
        assert any(isinstance(e, str) and e.startswith("skipped:")
                   for e in restored.attempted_iis)
        # The reuse counters are process-local telemetry, never payload.
        for key in ("n_slot_probes", "n_probe_memo_hits", "n_analysis_reuses"):
            assert key not in payload["data"]


# --------------------------------------------------------------------------- #
# Probe memoization counters
# --------------------------------------------------------------------------- #
class TestProbeMemo:
    def test_counters_surface_on_results(self):
        machine, rf = scaled("4C16S16")
        result = MirsHC(machine, rf).schedule_loop(build_kernel("equation_of_state"))
        assert result.n_slot_probes > 0
        assert result.n_probe_memo_hits >= 0


# --------------------------------------------------------------------------- #
# EvalCache LRU bound
# --------------------------------------------------------------------------- #
class TestEvalCacheLRU:
    def test_eviction_order_and_stats(self):
        cache = EvalCache(max_entries=2)
        cache.put("a", "run-a")
        cache.put("b", "run-b")
        assert cache.get("a") == "run-a"  # refresh: "b" is now LRU
        cache.put("c", "run-c")           # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == "run-a"
        assert cache.get("c") == "run-c"
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1

    def test_unbounded_mode(self):
        cache = EvalCache(max_entries=None)
        for index in range(100):
            cache.put(f"k{index}", index)
        assert len(cache) == 100
        assert cache.stats()["evictions"] == 0

    def test_disk_tier_survives_eviction(self, tmp_path):
        cache = EvalCache(tmp_path, max_entries=1)
        cache.put("aa11", [1, 2, 3])
        cache.put("bb22", [4, 5, 6])  # evicts aa11 from memory only
        assert cache.stats()["evictions"] == 1
        assert cache.get("aa11") == [1, 2, 3]  # re-loaded from disk

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            EvalCache(max_entries=0)
