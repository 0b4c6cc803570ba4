"""Micro-benchmarks of the scheduler itself (per-loop scheduling cost).

These are classic pytest-benchmark timing runs (multiple rounds) that
track the cost of scheduling a single loop on representative
configurations -- useful for catching performance regressions in the
scheduler's inner loops (reservation table, lifetime analysis,
communication insertion).

``test_pressure_checks_need_no_full_sweeps`` additionally verifies that
the engine's incremental
:class:`~repro.core.arraycore.ArrayPressureTracker` answers every
pressure check of a pressured workbench without a single full-graph
MaxLive sweep, and emits the machine-readable
``benchmarks/output/BENCH_scheduler.json`` artifact that tracks the
scheduler's performance trajectory across PRs.
"""

import json
import time

import pytest

from repro.core import MirsHC
from repro.core.analysis_cache import AnalysisCache
from repro.hwmodel import scaled_machine
from repro.machine import baseline_machine, config_by_name
from repro.workloads import build_kernel, perfect_club_like_suite
from repro.ddg import unroll


def _schedule(config_name, loop, *, analysis_cache=None):
    rf = config_by_name(config_name)
    machine, _ = scaled_machine(baseline_machine(), rf)
    engine = MirsHC(machine, rf, analysis_cache=analysis_cache)
    result = engine.schedule_loop(loop)
    assert result.success
    return result


@pytest.mark.parametrize("config_name", ["S64", "4C32", "4C16S16"])
def test_schedule_daxpy(benchmark, config_name):
    loop = build_kernel("daxpy")
    benchmark(lambda: _schedule(config_name, loop.copy()))


@pytest.mark.parametrize("config_name", ["S64", "4C16S16"])
def test_schedule_equation_of_state(benchmark, config_name):
    loop = build_kernel("equation_of_state")
    benchmark(lambda: _schedule(config_name, loop.copy()))


def test_schedule_unrolled_kernel_high_pressure(benchmark):
    loop = unroll(build_kernel("equation_of_state"), 2)
    benchmark(lambda: _schedule("2C32S32", loop.copy()))


def test_mii_analysis(benchmark):
    from repro.ddg import compute_mii
    from repro.machine import ResourceModel

    machine = baseline_machine()
    resources = ResourceModel(machine, config_by_name("S128"))
    loop = unroll(build_kernel("equation_of_state"), 4)
    benchmark(lambda: compute_mii(loop.graph, resources, machine.latency))


# --------------------------------------------------------------------------- #
# Incremental pressure tracking: counter-verified, no full sweeps
# --------------------------------------------------------------------------- #
def _pressure_workbench():
    """Pressured scheduling problems where the spill check dominates."""
    cases = [
        ("4C16S16", unroll(build_kernel("equation_of_state"), 2)),
        ("S32", unroll(build_kernel("equation_of_state"), 2)),
        ("2C32S32", unroll(build_kernel("equation_of_state"), 2)),
        ("8C16S16", build_kernel("equation_of_state")),
    ]
    cases += [("4C16S16", loop) for loop in perfect_club_like_suite(8, seed=2003)]
    return cases


def _run_workbench(cases):
    """Schedule every case; return timings + counters.

    Every case shares one fresh :class:`AnalysisCache`, like the suite
    drivers do (``eos_x2`` appears under three configurations, so the
    cross-configuration reuse the cache exists for is exercised here).
    """
    analysis_cache = AnalysisCache()
    checks = sweeps = slot_probes = probe_memo_hits = analysis_reuses = 0
    started = time.perf_counter()
    for config_name, loop in cases:
        result = _schedule(config_name, loop.copy(),
                           analysis_cache=analysis_cache)
        checks += result.n_pressure_checks
        sweeps += result.n_full_sweeps
        slot_probes += result.n_slot_probes
        probe_memo_hits += result.n_probe_memo_hits
        analysis_reuses += result.n_analysis_reuses
    elapsed = time.perf_counter() - started
    return {
        "wall_s": elapsed,
        "pressure_checks": checks,
        "full_sweeps": sweeps,
        "slot_probes": slot_probes,
        "probe_memo_hits": probe_memo_hits,
        "analysis_reuses": analysis_reuses,
    }


def test_pressure_checks_need_no_full_sweeps(output_dir):
    """Every pressure check is answered by the incremental tracker.

    The workbench's banks are all bounded, so the engine issues many
    pressure checks and must pay zero full-graph MaxLive sweeps for
    them.  The timings and every counter are recorded in
    ``BENCH_scheduler.json`` so the perf trajectory is tracked per PR.
    """
    cases = _pressure_workbench()
    incremental = _run_workbench(cases)
    assert incremental["pressure_checks"] > 0
    assert incremental["full_sweeps"] == 0

    # Per-kernel single-shot timings for the trajectory record.
    kernel_timings = {}
    for config_name, kernel in [("S64", "daxpy"), ("4C16S16", "daxpy"),
                                ("S64", "equation_of_state"),
                                ("4C16S16", "equation_of_state")]:
        loop = build_kernel(kernel)
        t0 = time.perf_counter()
        result = _schedule(config_name, loop)
        kernel_timings[f"{kernel}@{config_name}"] = {
            "wall_s": time.perf_counter() - t0,
            "ii": result.ii,
            "pressure_checks": result.n_pressure_checks,
            "full_sweeps": result.n_full_sweeps,
            "slot_probes": result.n_slot_probes,
            "probe_memo_hits": result.n_probe_memo_hits,
        }

    # Schema 3: the workbench record and per-kernel records carry the
    # reuse counters (slot_probes, probe_memo_hits, analysis_reuses);
    # the full-sweep comparison mode of schema 2 no longer exists.
    payload = {
        "schema": 3,
        "workbench_cases": len(cases),
        "incremental": incremental,
        "kernels": kernel_timings,
    }
    (output_dir / "BENCH_scheduler.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
