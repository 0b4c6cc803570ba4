"""Machine-readable performance trajectory records (``BENCH_*.json``).

The repo keeps two committed benchmark baselines at the repository root:

* ``BENCH_workbench.json`` -- produced by :func:`run_workbench_bench`:
  wall-clock, loops/sec, cache and shard-resume statistics for a
  workbench tier evaluated cold and then resumed from its checkpoint.
* ``BENCH_scheduler.json`` -- produced by the scheduler microbenchmark
  (``benchmarks/test_scheduler_microbench.py``): engine timings plus the
  pressure-check / full-sweep counters of the incremental tracker.

CI regenerates both records on every push and gates the build with
:func:`compare_bench`: a fresh record that regresses wall-clock beyond
the tolerance, *ever* increases a full-sweep counter, fails loops the
baseline scheduled, changes the schedules of the baseline's workbench,
or loses bit-identical shard resume fails the job.
Updating a baseline is therefore always an explicit, reviewed commit --
that is what makes the records a *trajectory* rather than a log.

Wall-clock comparisons are inherently machine-sensitive; the tolerance
is configurable (CI exposes ``REPRO_BENCH_TOLERANCE``) and every
non-timing check is exact.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.analysis_cache import shared_analysis_cache
from repro.eval.cache import EvalCache
from repro.eval.experiments import schedule_suite
from repro.eval.shards import DEFAULT_SHARD_SIZE, ResultStore, runs_digest
from repro.workloads.suite import build_workbench, workbench_tier

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "run_workbench_bench",
    "compare_bench",
    "load_record",
]

BENCH_SCHEMA_VERSION: int = 1

#: Wall-clock entries shorter than this are below timer/runner noise on
#: hosted CI (sub-millisecond kernel schedules, shard restores) and are
#: never gated -- a 25% "regression" of 0.5ms is jitter, not a signal.
MIN_GATED_WALL_S: float = 0.05


def _config_pass(
    loops,
    config_name: str,
    *,
    jobs: int,
    shard_size: int,
    store: ResultStore,
    cache: Optional[EvalCache],
) -> Dict[str, object]:
    """One timed evaluation pass of the workbench on one configuration."""
    start = time.perf_counter()
    runs = schedule_suite(
        loops,
        config_name,
        jobs=jobs,
        cache=cache,
        store=store,
        shard_size=shard_size,
    )
    wall_s = time.perf_counter() - start
    return {
        "wall_s": wall_s,
        "loops_per_s": len(runs) / wall_s if wall_s > 0 else float("inf"),
        "sum_ii": sum(run.result.ii for run in runs if run.result.success),
        "n_failed": sum(1 for run in runs if not run.result.success),
        # Scheduler-level reuse telemetry (informational, never gated --
        # see _walk_counters).  The counters ride on each result but are
        # not serialized: pool workers (jobs > 1) return pickled runs that
        # keep them, while runs restored through a serialize round trip
        # (shards, the service, the fleet) read zero.
        "slot_probes": sum(run.result.n_slot_probes for run in runs),
        "probe_memo_hits": sum(run.result.n_probe_memo_hits for run in runs),
        "analysis_reuses": sum(run.result.n_analysis_reuses for run in runs),
        "analysis_cache": shared_analysis_cache().stats(),
        "store": store.stats(),
        "cache": cache.stats() if cache is not None else None,
        "digest": runs_digest(runs),
        # True when the store already held shards for this pass: with a
        # persisted checkpoint_dir (the nightly workflow) even the first
        # pass resumes prior work, and its wall-clock measures restore
        # cost, not scheduling -- consumers and the gate must know.
        "warm_start": store.hits > 0,
    }


def run_workbench_bench(
    *,
    tier: str = "small",
    configs: Sequence[str] = ("S64", "4C16S16"),
    n_loops: Optional[int] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    checkpoint_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, object]:
    """Benchmark checkpointed workbench evaluation; return the record.

    Per configuration the workbench is evaluated twice: a *cold* pass
    into an empty shard store, then a *resume* pass against the
    populated store (what a rerun after an interruption, or the next CI
    run with a persisted checkpoint, experiences).  The record captures
    wall-clock and loops/sec for both, the cache and shard-store
    counters, and whether the resumed result is canonically identical to
    the cold one (``resume_identical`` -- the checkpoint correctness
    invariant, gated in CI).

    ``checkpoint_dir`` persists the stores (CI hands in a cached
    directory so nightly full-tier runs resume across days); by default
    a temporary directory is used and removed.
    """
    workbench = build_workbench(tier, n_loops=n_loops, seed=seed)
    tier_spec = workbench_tier(tier)
    temp_dir = None
    if checkpoint_dir is None:
        temp_dir = tempfile.mkdtemp(prefix="repro-bench-")
        checkpoint_dir = temp_dir
    root = Path(checkpoint_dir)
    try:
        import repro

        record: Dict[str, object] = {
            "kind": "workbench",
            "schema": BENCH_SCHEMA_VERSION,
            "generator": f"repro {repro.__version__}",
            "tier": tier,
            "n_loops": len(workbench),
            "seed": tier_spec.seed if seed is None else seed,
            "jobs": jobs,
            "shard_size": shard_size,
            "configs": {},
        }
        total_wall = 0.0
        all_identical = True
        for config_name in configs:
            store_dir = root / config_name
            # Count only -- deriving a full ShardPlan here would hash a
            # schedule key per loop, three times per configuration at
            # full-tier scale, and pollute the resume timing it reports.
            n_shards = (len(workbench) + shard_size - 1) // shard_size
            cold = _config_pass(
                workbench, config_name,
                jobs=jobs, shard_size=shard_size,
                store=ResultStore(store_dir), cache=EvalCache(),
            )
            resume = _config_pass(
                workbench, config_name,
                jobs=jobs, shard_size=shard_size,
                store=ResultStore(store_dir), cache=EvalCache(),
            )
            identical = cold["digest"] == resume["digest"]
            all_identical = all_identical and identical
            total_wall += cold["wall_s"] + resume["wall_s"]
            record["configs"][config_name] = {
                "n_shards": n_shards,
                "cold": cold,
                "resume": resume,
                "resume_identical": identical,
                "resume_speedup": (
                    cold["wall_s"] / resume["wall_s"]
                    if resume["wall_s"] > 0 else float("inf")
                ),
            }
        record["totals"] = {
            "wall_s": total_wall,
            "resume_identical": all_identical,
        }
        return record
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Baseline comparison (the CI perf gate)
# --------------------------------------------------------------------------- #
def load_record(path: Union[str, Path]) -> Dict:
    """Read one ``BENCH_*.json`` record."""
    with open(path) as handle:
        return json.load(handle)


def _check_wall(
    label: str, base: float, fresh: float, tolerance: float,
    problems: List[str],
) -> None:
    # Entries below the noise floor are never gated: relative tolerances
    # on sub-millisecond timings only measure runner jitter.
    if base < MIN_GATED_WALL_S and fresh < MIN_GATED_WALL_S:
        return
    if base > 0 and fresh > base * (1.0 + tolerance):
        problems.append(
            f"{label}: wall-clock regressed {fresh:.3f}s vs baseline "
            f"{base:.3f}s (> {tolerance:.0%} tolerance)"
        )


def _compare_workbench(
    baseline: Dict, fresh: Dict, tolerance: float
) -> Tuple[List[str], List[str]]:
    problems: List[str] = []
    notes: List[str] = []
    base_configs = baseline.get("configs", {})
    fresh_configs = fresh.get("configs", {})
    # Only the same loops can be held to the same schedules.
    same_workbench = all(
        baseline.get(field) == fresh.get(field)
        for field in ("tier", "n_loops", "seed")
    )
    for name, base_entry in base_configs.items():
        fresh_entry = fresh_configs.get(name)
        if fresh_entry is None:
            problems.append(f"config {name}: missing from the fresh record")
            continue
        if fresh_entry["cold"].get("warm_start") or base_entry["cold"].get("warm_start"):
            # A warm-started "cold" pass (persisted checkpoint dir, e.g.
            # the nightly workflow) measures shard restore, not
            # scheduling; comparing it against a truly cold baseline
            # would be meaningless in either direction.
            notes.append(
                f"config {name}: cold pass was warm-started from a "
                f"persisted checkpoint; wall-clock not gated"
            )
        else:
            _check_wall(
                f"config {name} (cold)",
                base_entry["cold"]["wall_s"], fresh_entry["cold"]["wall_s"],
                tolerance, problems,
            )
        if not fresh_entry.get("resume_identical", False):
            problems.append(
                f"config {name}: resumed evaluation is no longer "
                f"bit-identical to the cold run"
            )
        base_failed = base_entry["cold"].get("n_failed", 0)
        fresh_failed = fresh_entry["cold"].get("n_failed", 0)
        if fresh_failed > base_failed:
            problems.append(
                f"config {name}: {fresh_failed} loops failed to schedule "
                f"(baseline: {base_failed})"
            )
        base_digest = base_entry["cold"].get("digest")
        fresh_digest = fresh_entry["cold"].get("digest")
        if same_workbench and base_digest and fresh_digest != base_digest:
            problems.append(
                f"config {name}: schedules changed, runs digest "
                f"{base_digest[:16]} -> {str(fresh_digest)[:16]} (update the "
                f"baseline deliberately)"
            )
        base_ii = base_entry["cold"].get("sum_ii")
        fresh_ii = fresh_entry["cold"].get("sum_ii")
        if base_ii is not None and fresh_ii != base_ii:
            notes.append(
                f"config {name}: sum II changed {base_ii} -> {fresh_ii} "
                f"(scheduler behaviour change; update the baseline "
                f"deliberately)"
            )
    return problems, notes


def _walk_counters(payload: object, prefix: str = "") -> Dict[str, float]:
    """Flatten every ``full_sweeps``/``wall_s`` counter of a record."""
    found: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, (int, float)) and key in ("full_sweeps", "wall_s"):
                found[path] = float(value)
            else:
                found.update(_walk_counters(value, path))
    return found


def _compare_scheduler(
    baseline: Dict, fresh: Dict, tolerance: float
) -> Tuple[List[str], List[str]]:
    problems: List[str] = []
    notes: List[str] = []
    base_counters = _walk_counters(baseline)
    fresh_counters = _walk_counters(fresh)
    for path, base_value in base_counters.items():
        fresh_value = fresh_counters.get(path)
        if fresh_value is None:
            problems.append(f"{path}: missing from the fresh record")
            continue
        if path.endswith("full_sweeps"):
            # The incremental-pressure engine's core invariant: any
            # increase in full-graph sweeps is a regression, full stop.
            if fresh_value > base_value:
                problems.append(
                    f"{path}: full sweeps increased "
                    f"{base_value:.0f} -> {fresh_value:.0f}"
                )
        else:
            _check_wall(path, base_value, fresh_value, tolerance, problems)
    return problems, notes


def compare_bench(
    baseline: Dict, fresh: Dict, *, tolerance: float = 0.25
) -> Tuple[List[str], List[str]]:
    """Compare a fresh benchmark record against a committed baseline.

    Returns ``(problems, notes)``: ``problems`` fail the CI gate
    (wall-clock beyond ``tolerance``, any full-sweep increase, new
    scheduling failures, a changed runs digest on the baseline's
    workbench, lost resume identity, vanished entries);
    ``notes`` are informational (behaviour changes that need a
    deliberate baseline update).
    """
    if baseline.get("kind") == "workbench" or "configs" in baseline:
        return _compare_workbench(baseline, fresh, tolerance)
    return _compare_scheduler(baseline, fresh, tolerance)
