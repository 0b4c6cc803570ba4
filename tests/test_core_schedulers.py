"""Integration tests: MIRS_HC and the non-iterative baseline on every RF family.

Every schedule produced here is re-checked by the independent validator
(dependences, resources, bank consistency, register capacity), which is
the strongest end-to-end guarantee the test suite provides.
"""

import pytest

from repro.core import MirsHC, NonIterativeScheduler, schedule_loop, validate_schedule
from repro.core.validate import ValidationError
from repro.ddg import OpType
from repro.hwmodel import scaled_machine
from repro.machine import baseline_machine, config_by_name
from repro.workloads import build_kernel, perfect_club_like_suite

CONFIG_FAMILIES = ["S64", "S32", "2C64", "4C32", "1C32S64", "2C32S32", "4C16S16", "8C16S16"]


def scaled(config_name):
    rf = config_by_name(config_name)
    machine, _ = scaled_machine(baseline_machine(), rf)
    return machine, rf


class TestSingleKernels:
    @pytest.mark.parametrize("config_name", CONFIG_FAMILIES)
    @pytest.mark.parametrize("kernel", ["daxpy", "dot_product", "hydro_fragment", "normalize3"])
    def test_kernel_schedules_and_validates(self, config_name, kernel):
        machine, rf = scaled(config_name)
        loop = build_kernel(kernel)
        result = MirsHC(machine, rf).schedule_loop(loop)
        assert result.success
        assert result.ii >= result.mii
        validate_schedule(result, machine, rf)

    def test_monolithic_needs_no_communication(self):
        machine, rf = scaled("S64")
        result = MirsHC(machine, rf).schedule_loop(build_kernel("hydro_fragment"))
        assert result.n_comm_ops == 0

    def test_hierarchical_inserts_loadr_storer(self):
        machine, rf = scaled("4C16S16")
        result = MirsHC(machine, rf).schedule_loop(build_kernel("daxpy"))
        kinds = {op.op for op in result.graph.communication_operations()}
        assert OpType.LOADR in kinds
        assert OpType.STORER in kinds
        assert OpType.MOVE not in kinds

    def test_clustered_uses_moves_only(self):
        machine, rf = scaled("4C32")
        result = MirsHC(machine, rf).schedule_loop(build_kernel("equation_of_state"))
        kinds = {op.op for op in result.graph.communication_operations()}
        assert kinds <= {OpType.MOVE}

    def test_recurrence_loop_respects_recmii(self):
        machine, rf = scaled("S64")
        result = MirsHC(machine, rf).schedule_loop(build_kernel("dot_product"))
        assert result.ii >= machine.latency("fadd")
        assert result.mii_breakdown.rec == machine.latency("fadd")
        assert result.bound == "rec"

    def test_schedule_loop_convenience_wrapper(self):
        result = schedule_loop(build_kernel("vadd"), "2C64")
        assert result.success
        assert result.config_name == "2C64"

    def test_kernel_table_rendering(self):
        result = schedule_loop(build_kernel("daxpy"), "S64")
        text = result.kernel_table()
        assert "II=" in text and "slot" in text
        assert result.summary().startswith("daxpy")


class TestRegisterPressureHandling:
    def test_small_monolithic_bank_forces_spill(self):
        machine, rf = scaled("S32")
        # A wide unrolled loop with many concurrently live values.
        from repro.ddg import unroll

        loop = unroll(build_kernel("equation_of_state"), 2)
        result = MirsHC(machine, rf).schedule_loop(loop)
        assert result.success
        validate_schedule(result, machine, rf)
        assert result.register_usage[-1] <= 32

    def test_hierarchical_absorbs_pressure_without_memory_traffic(self):
        from repro.ddg import unroll

        loop = unroll(build_kernel("equation_of_state"), 2)
        machine32, rf32 = scaled("S32")
        mono = MirsHC(machine32, rf32).schedule_loop(loop.copy())
        machine_h, rf_h = scaled("1C32S64")
        hier = MirsHC(machine_h, rf_h).schedule_loop(loop.copy())
        assert hier.success and mono.success
        # The hierarchical organization spills to its shared bank, not to
        # memory, so it never issues more memory operations than the
        # monolithic configuration.
        assert hier.n_spill_memory_ops <= mono.memory_ops_per_iteration
        assert hier.memory_ops_per_iteration <= mono.memory_ops_per_iteration

    def test_unbounded_configuration_never_spills(self):
        rf = config_by_name("4C16S16").with_unbounded_registers()
        machine, _ = scaled_machine(baseline_machine(), rf)
        result = MirsHC(machine, rf).schedule_loop(build_kernel("equation_of_state"))
        assert result.success
        assert result.n_spill_memory_ops == 0


class TestBaselineScheduler:
    def test_baseline_produces_valid_schedules(self):
        machine, rf = scaled("1C32S64")
        for kernel in ("daxpy", "hydro_fragment", "fir_filter"):
            result = NonIterativeScheduler(machine, rf).schedule_loop(build_kernel(kernel))
            assert result.success
            validate_schedule(result, machine, rf)

    def test_mirs_hc_never_much_worse_than_baseline(self, small_loops):
        machine, rf = scaled("1C32S64")
        iterative = MirsHC(machine, rf)
        baseline = NonIterativeScheduler(machine, rf)
        total_iterative = 0
        total_baseline = 0
        for loop in small_loops[:10]:
            r_it = iterative.schedule_loop(loop)
            r_ba = baseline.schedule_loop(loop)
            assert r_it.success
            total_iterative += r_it.ii
            total_baseline += r_ba.ii if r_ba.success else 4 * r_ba.mii
        # The iterative scheduler should be at least as good in aggregate
        # (this is the paper's Table 4 claim).
        assert total_iterative <= total_baseline


class TestValidatorCatchesBrokenSchedules:
    def test_validator_detects_dependence_violation(self):
        machine, rf = scaled("S64")
        result = MirsHC(machine, rf).schedule_loop(build_kernel("daxpy"))
        # Corrupt the schedule: move one compute op to cycle 0.
        some_compute = next(
            node_id for node_id, placed in result.assignments.items()
            if placed.op.is_compute and any(
                e.kind == "flow" for e in result.graph.in_edges(node_id)
                if not result.graph.node(e.src).op.is_pseudo
            )
        )
        placed = result.assignments[some_compute]
        object.__setattr__(placed, "cycle", 0)
        with pytest.raises(ValidationError):
            validate_schedule(result, machine, rf)

    def test_validator_detects_missing_assignment(self):
        machine, rf = scaled("S64")
        result = MirsHC(machine, rf).schedule_loop(build_kernel("daxpy"))
        node = next(iter(result.assignments))
        del result.assignments[node]
        with pytest.raises(ValidationError):
            validate_schedule(result, machine, rf)

    def test_validator_rejects_failed_result(self):
        machine, rf = scaled("S64")
        result = MirsHC(machine, rf).schedule_loop(build_kernel("daxpy"))
        result.success = False
        with pytest.raises(ValidationError):
            validate_schedule(result, machine, rf)


class TestSuiteIntegration:
    @pytest.mark.parametrize("config_name", ["S64", "4C32", "2C32S32", "8C16S16"])
    def test_small_suite_all_valid(self, tiny_loops, config_name):
        machine, rf = scaled(config_name)
        scheduler = MirsHC(machine, rf)
        for loop in tiny_loops:
            result = scheduler.schedule_loop(loop)
            assert result.success, f"{loop.name} failed on {config_name}"
            validate_schedule(result, machine, rf)


class TestAttemptLifetime:
    def test_dropped_attempts_are_freed_by_reference_counting(self):
        """Failed and superseded attempts leave no cyclic garbage.

        A pressure tracker observes its graph, so an attempt is a
        reference cycle until the engine detaches it; the small tier on
        4C16S16 fails and bisects enough attempts to expose a missed one.
        """
        import gc

        from repro.core.engine import SchedulerEngine
        from repro.workloads import build_workbench

        loops = build_workbench("small")
        machine, rf = scaled("4C16S16")
        engine = SchedulerEngine(machine, rf)
        gc.collect()
        gc.disable()
        try:
            results = [engine.schedule_loop(loop) for loop in loops]
            assert sum(len(r.attempted_iis) for r in results) > len(loops)
            assert gc.collect() == 0
        finally:
            gc.enable()
