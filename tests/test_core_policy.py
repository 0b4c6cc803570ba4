"""Policy layer and engine tests.

Covers the policy registries and bundles, the II-search strategies
(including the bisection refinement pin test), the failure-path
introspection counters of :class:`ScheduleResult`, and end-to-end
validity of every registered bundle.
"""

import pytest

from repro.core import (
    MirsHC,
    PolicyBundle,
    SchedulerEngine,
    bundle_names,
    get_bundle,
    resolve_bundle,
    validate_schedule,
)
from repro.core.policy import (
    GeometricBisectIISearch,
    GeometricIISearch,
    LinearIISearch,
    cluster_policy,
    ii_search_policy,
    ordering_policy,
    spill_victim_policy,
)
from repro.core.lifetimes import ValueLifetime
from repro.core.spill import (
    victim_fewest_reloads,
    victim_latest_def,
    victim_longest_lifetime,
)
from repro.hwmodel import scaled_machine
from repro.machine import baseline_machine, config_by_name
from repro.workloads import build_kernel


def scaled(config_name):
    rf = config_by_name(config_name)
    machine, _ = scaled_machine(baseline_machine(), rf)
    return machine, rf


# --------------------------------------------------------------------------- #
# Registries and bundles
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_default_bundles_are_registered(self):
        names = bundle_names()
        assert "mirs_hc" in names
        assert "non_iterative" in names
        # At least two alternatives exist on every axis (tentpole claim).
        orderings = {get_bundle(n).ordering for n in names}
        clusters = {get_bundle(n).cluster for n in names}
        spills = {get_bundle(n).spill for n in names}
        searches = {get_bundle(n).ii_search for n in names}
        assert len(orderings) >= 3
        assert len(clusters) >= 3
        assert len(spills) >= 3
        assert len(searches) >= 3

    def test_unknown_names_raise(self):
        with pytest.raises(ValueError, match="unknown policy bundle"):
            resolve_bundle("nope")
        with pytest.raises(ValueError, match="unknown ordering"):
            ordering_policy("nope")
        with pytest.raises(ValueError, match="unknown cluster-selection"):
            cluster_policy("nope")
        with pytest.raises(ValueError, match="unknown spill-victim"):
            spill_victim_policy("nope")
        with pytest.raises(ValueError, match="unknown II-search"):
            ii_search_policy("nope")

    def test_adhoc_bundle_is_validated(self):
        bundle = PolicyBundle("custom", ordering="asap", cluster="round_robin")
        assert resolve_bundle(bundle) is bundle
        with pytest.raises(ValueError):
            resolve_bundle(PolicyBundle("broken", ordering="nope"))

    def test_axes_identity(self):
        a = get_bundle("mirs_hc").axes()
        b = get_bundle("mirs_linear_ii").axes()
        assert a != b
        assert a == PolicyBundle("renamed").axes()


# --------------------------------------------------------------------------- #
# II-search policies
# --------------------------------------------------------------------------- #
class TestIISearch:
    def test_linear_advances_by_one(self):
        search = LinearIISearch()
        assert [search.next_ii(ii, n) for n, ii in enumerate([4, 5, 6], 1)] == [5, 6, 7]
        assert not search.refine_with_bisection

    def test_geometric_accelerates_after_three_failures(self):
        search = GeometricIISearch()
        assert search.next_ii(10, 1) == 11
        assert search.next_ii(11, 2) == 12
        assert search.next_ii(12, 3) == 13  # third restart is still linear
        assert search.next_ii(13, 4) == 13 + max(1, round(13 * 0.15))
        assert search.next_ii(100, 7) == 115
        assert not search.refine_with_bisection

    def test_bisect_flag(self):
        assert GeometricBisectIISearch().refine_with_bisection
        assert GeometricBisectIISearch().next_ii(100, 7) == 115  # same advance


class TestBisectionRefinement:
    """Satellite pin: accelerated restarts can no longer overshoot.

    Feasibility is stubbed to "II >= 15": the geometric search's linear
    phase fails 1..4, the accelerated jumps land past 15, and only the
    bisection refinement can recover the true minimum of 15.
    """

    FEASIBLE_FROM = 15

    def _engine(self, policy):
        machine, rf = scaled("S64")
        engine = SchedulerEngine(machine, rf, policy=policy)
        real_try = engine._try

        def gated_try(loop, ii, counters, order):
            if ii < self.FEASIBLE_FROM:
                return None
            return real_try(loop, ii, counters, order)

        engine._try = gated_try
        return engine

    def test_geometric_without_bisection_overshoots(self):
        engine = self._engine("mirs_geometric_ii")
        result = engine.schedule_loop(build_kernel("daxpy"))
        assert result.success
        assert result.ii > self.FEASIBLE_FROM  # the historical overshoot

    def test_default_bundle_bisects_back_to_minimum(self):
        engine = self._engine("mirs_hc")
        result = engine.schedule_loop(build_kernel("daxpy"))
        assert result.success
        assert result.ii == self.FEASIBLE_FROM
        # The refinement attempts are visible in the introspection trail,
        # and the final II is the last one it tried.
        assert result.attempted_iis[-1] == result.ii
        assert self.FEASIBLE_FROM in result.attempted_iis
        validate_schedule(result, engine.machine, engine.rf)

    def test_linear_needs_no_bisection(self):
        engine = self._engine("mirs_linear_ii")
        result = engine.schedule_loop(build_kernel("daxpy"))
        assert result.success
        assert result.ii == self.FEASIBLE_FROM
        # Strictly increasing by one: no refinement attempts appended.
        assert result.attempted_iis == sorted(set(result.attempted_iis))


# --------------------------------------------------------------------------- #
# Failure-path introspection (satellite)
# --------------------------------------------------------------------------- #
class TestFailurePath:
    def test_failure_reports_last_attempted_ii(self):
        machine, rf = scaled("S64")
        engine = SchedulerEngine(machine, rf, max_ii=22)
        engine._try = lambda loop, ii, counters, order: None  # nothing is feasible
        result = engine.schedule_loop(build_kernel("daxpy"))
        assert not result.success
        assert result.attempted_iis  # the trail is recorded
        assert result.attempted_iis == sorted(result.attempted_iis)
        # The reported II is the last II actually tried -- NOT the search
        # ceiling (the geometric jumps skip over max_ii rather than
        # landing on it).
        assert result.ii == result.attempted_iis[-1]
        assert result.ii != engine.max_ii
        # On a total failure every attempt counts as a restart (there is
        # no bisection phase without a feasible II).
        assert result.restarts == len(result.attempted_iis)

    def test_success_records_pressure_checks(self):
        machine, rf = scaled("4C16S16")
        result = MirsHC(machine, rf).schedule_loop(build_kernel("daxpy"))
        assert result.success
        assert result.n_pressure_checks > 0
        assert result.n_full_sweeps == 0  # incremental tracker: no sweeps
        assert result.policy == "mirs_hc"


# --------------------------------------------------------------------------- #
# Spill-victim policies (unit level)
# --------------------------------------------------------------------------- #
class TestVictimPolicies:
    def test_orderings_differ_as_documented(self):
        from repro.ddg import DepGraph, OpType

        graph = DepGraph()
        a = graph.add_node(OpType.FADD)
        b = graph.add_node(OpType.FMUL)
        consumers = [graph.add_node(OpType.FADD) for _ in range(3)]
        # a: long lifetime, 3 consumers; b: short lifetime, 1 consumer.
        for c in consumers:
            graph.add_edge(a, c)
        graph.add_edge(b, consumers[0])
        long_many = ValueLifetime(a, 0, 0, 20)
        short_few = ValueLifetime(b, 0, 10, 14)
        pool = [short_few, long_many]
        assert victim_longest_lifetime(graph, pool)[0] is long_many
        assert victim_fewest_reloads(graph, pool)[0] is short_few
        assert victim_latest_def(graph, pool)[0] is short_few  # starts later


# --------------------------------------------------------------------------- #
# Every bundle produces valid schedules
# --------------------------------------------------------------------------- #
class TestBundleValidity:
    @pytest.mark.parametrize("bundle", bundle_names())
    @pytest.mark.parametrize("config_name", ["4C16S16", "2C32S32"])
    def test_bundle_schedules_and_validates(self, bundle, config_name):
        machine, rf = scaled(config_name)
        for kernel in ("daxpy", "hydro_fragment"):
            result = SchedulerEngine(machine, rf, policy=bundle).schedule_loop(
                build_kernel(kernel)
            )
            assert result.success, f"{kernel} failed under {bundle}"
            assert result.policy == bundle
            validate_schedule(result, machine, rf)

    def test_round_robin_spreads_compute(self):
        machine, rf = scaled("4C32")
        result = SchedulerEngine(machine, rf, policy="mirs_rr_cluster").schedule_loop(
            build_kernel("equation_of_state")
        )
        assert result.success
        used_clusters = {
            placed.cluster
            for placed in result.assignments.values()
            if placed.op.is_compute
        }
        assert len(used_clusters) > 1


# --------------------------------------------------------------------------- #
# Policy selection reaches the cache key and the suite driver
# --------------------------------------------------------------------------- #
class TestPolicyThreading:
    def test_cache_key_distinguishes_policies(self):
        from repro.eval.cache import schedule_key

        loop = build_kernel("daxpy")
        rf = config_by_name("4C16S16")
        machine = baseline_machine()
        default = schedule_key(loop, rf, machine)
        explicit = schedule_key(loop, rf, machine, scheduler="mirs_hc")
        other = schedule_key(loop, rf, machine, scheduler="mirs_rr_cluster")
        adhoc = schedule_key(
            loop, rf, machine, scheduler=PolicyBundle("mirs_hc", cluster="round_robin")
        )
        assert default == explicit
        assert other != default
        assert adhoc != default  # same name, different axes

    def test_schedule_suite_accepts_bundle_names(self):
        from repro.eval.experiments import schedule_suite

        runs = schedule_suite([build_kernel("daxpy")], "4C16S16",
                              scheduler="mirs_min_pressure")
        assert runs[0].result.success
        assert runs[0].result.policy == "mirs_min_pressure"

    def test_api_policy_parameter(self):
        from repro import api

        result = api.schedule_kernel("daxpy", "4C16S16", policy="non_iterative")
        assert result.policy == "non_iterative"

    def test_fuzzer_rejects_unknown_policy_upfront(self):
        from repro.verify.fuzz import fuzz_schedules

        # A typo'd bundle name must fail loudly before any case runs --
        # not be misclassified as a scheduler crash on every seed (which
        # would pollute the corpus with bogus "failures").
        with pytest.raises(ValueError, match="unknown policy bundle"):
            fuzz_schedules(1, policies=["mirshc"], shrink=False)

    def test_ablation_driver_smoke(self):
        from repro.eval.experiments import run_ablation_policies

        outcome = run_ablation_policies(
            n_loops=4, config_name="4C16S16",
            policies=["mirs_hc", "non_iterative", "mirs_rr_cluster"],
        )
        rows = outcome.data["rows"]
        assert set(rows) == {"mirs_hc", "non_iterative", "mirs_rr_cluster"}
        for row in rows.values():
            assert row["sum_ii"] > 0
            assert row["pressure_checks"] > 0
        # MIRS_HC must not lose to the non-iterative bundle in aggregate
        # (the paper's Table 4 claim, preserved through the refactor).
        assert rows["mirs_hc"]["sum_ii"] <= rows["non_iterative"]["sum_ii"]
