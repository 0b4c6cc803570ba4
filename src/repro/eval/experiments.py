"""Experiment drivers: one per table / figure of the paper's evaluation.

Every driver builds (or accepts) a workbench, schedules it on the
configurations the corresponding table/figure evaluates, and returns an
:class:`ExperimentResult` whose ``table`` mirrors the layout of the paper
and whose ``data`` dictionary exposes the raw numbers for tests and
benchmarks.  Absolute values differ from the paper (synthetic workbench,
analytical hardware model) but the *shape* -- orderings, ratios,
crossovers -- is the reproduction target; EXPERIMENTS.md records the
comparison.

All drivers accept ``n_loops`` and ``seed`` so the workbench size can be
scaled from quick smoke tests (a few dozen loops) up to the paper's
1258-loop scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.eval.cache import EvalCache
    from repro.eval.shards import ResultStore
    from repro.session import Session

from repro.ddg.loop import Loop
from repro.machine.config import MachineConfig, RFConfig
from repro.machine.presets import (
    baseline_machine,
    config_by_name,
    figure1_machines,
    figure4_cluster_counts,
    figure6_configs,
    table1_configs,
    table2_configs,
    table3_configs,
    table5_configs,
    table6_configs,
)
from repro.machine.config import UNBOUNDED
from repro.hwmodel.timing import derive_hardware, scaled_machine
from repro.core.analysis_cache import shared_analysis_cache
from repro.core.engine import SchedulerEngine
from repro.core.policy import PolicyBundle, bundle_names, resolve_bundle
from repro.core.result import ScheduleResult
from repro.eval.metrics import LoopRun, aggregate_cycles, aggregate_time_ns, aggregate_traffic
from repro.eval.reporting import Table
from repro.simulator.cache import CacheConfig
from repro.simulator.prefetch import PrefetchPolicy, apply_binding_prefetch, classify_loads
from repro.simulator.vliw import simulate_loop_execution
from repro.workloads.suite import perfect_club_like_suite

__all__ = [
    "ExperimentResult",
    "iter_schedule_suite",
    "schedule_suite",
    "run_figure1",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_figure4",
    "run_figure6",
    "run_ablation_budget_ratio",
    "run_ablation_prefetch",
    "run_ablation_ports",
    "run_ablation_policies",
]

DEFAULT_N_LOOPS = 96
DEFAULT_SEED = 2003


@dataclass
class ExperimentResult:
    """The outcome of one experiment driver."""

    name: str
    table: Table
    data: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        return self.table.render()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def _suite(n_loops: int, seed: int) -> List[Loop]:
    return perfect_club_like_suite(n_loops=n_loops, seed=seed)


def _engine_context(
    session: "Optional[Session]",
    jobs: Optional[int],
    cache: "Optional[EvalCache]",
) -> Tuple[int, "Optional[EvalCache]", object, "Optional[ResultStore]"]:
    """Resolve a driver's (jobs, cache, executor, store) from an optional session.

    Explicit ``jobs=``/``cache=`` arguments win; a session fills whatever
    the caller left unset and contributes its warm worker pool and its
    shard checkpoint store (so *every* driver becomes resumable when the
    session was built with ``checkpoint=``).  Without a session the
    historical defaults apply (serial, no cache, no checkpoint).
    """
    executor = None
    store = None
    if session is not None:
        if jobs is None:
            jobs = session.jobs
        if cache is None:
            cache = session.cache
        executor = session.executor(jobs)
        store = session.checkpoint
    return (1 if jobs is None else jobs), cache, executor, store


# --------------------------------------------------------------------------- #
# Scheduling helpers
# --------------------------------------------------------------------------- #
def _build_engine(
    rf_config: RFConfig,
    base: MachineConfig,
    scale_to_clock: bool,
    budget_ratio: float,
    scheduler: "str | PolicyBundle",
):
    """Instantiate a scheduling engine for one configuration.

    ``scheduler`` is a policy-bundle name (``"mirs_hc"``,
    ``"non_iterative"``, any registered ablation bundle) or an ad-hoc
    :class:`~repro.core.policy.PolicyBundle`.  Returns ``(engine,
    scaled_machine, spec)``; ``spec`` is ``None`` when latencies are not
    re-scaled to the configuration's clock.  Shared by the serial path
    below and by the workers of :mod:`repro.eval.parallel`, so both build
    byte-for-byte identical engines.
    """
    spec = None
    if scale_to_clock:
        scaled, spec = scaled_machine(base, rf_config)
    else:
        scaled = base
    # Every engine built through this path shares the per-process analysis
    # cache, so RecMII/order work is reused across configs of a sweep; the
    # workers of repro.eval.parallel call _build_engine inside the worker
    # process and therefore each get their own per-process instance.
    engine = SchedulerEngine(
        scaled, rf_config, policy=scheduler, budget_ratio=budget_ratio,
        analysis_cache=shared_analysis_cache(),
    )
    return engine, scaled, spec


def _schedule_one(
    loop: Loop,
    engine,
    scaled: MachineConfig,
    spec,
    prefetch: Optional[PrefetchPolicy],
) -> LoopRun:
    """Schedule one loop (applying binding prefetching when requested)."""
    target = loop
    if prefetch is not None and prefetch.enabled and spec is not None:
        target = loop.copy()
        miss_cycles = spec.miss_latency_cycles(scaled.miss_latency_ns)
        prefetched = classify_loads(target, prefetch)
        apply_binding_prefetch(target.graph, prefetched, miss_cycles)
    result = engine.schedule_loop(target)
    return LoopRun(loop=target, result=result, spec=spec)


def iter_schedule_suite(
    loops: Sequence[Loop],
    rf: RFConfig | str,
    *,
    machine: Optional[MachineConfig] = None,
    scale_to_clock: bool = True,
    budget_ratio: float = 6.0,
    scheduler: "str | PolicyBundle" = "mirs_hc",
    prefetch: Optional[PrefetchPolicy] = None,
    jobs: int = 1,
    cache: Optional["EvalCache"] = None,
    executor=None,
    store: "Optional[ResultStore]" = None,
    shard_size: Optional[int] = None,
) -> Iterator[Tuple[int, LoopRun, bool]]:
    """Schedule a workbench, yielding ``(position, run, cached)`` as ready.

    The streaming primitive under :func:`schedule_suite` and
    :meth:`repro.session.Session.evaluate_stream`.  Cache hits are
    yielded immediately (in workbench order, ``cached=True``); the
    missing loops follow in *completion* order as the serial engine or
    the worker pool produces them.  Duplicate problems within one call
    are scheduled once and yielded for every position that needs them.

    ``executor`` is an optional live pool (a session's warm workers);
    without one the call spawns and tears down its own, exactly like
    :func:`schedule_suite`.  The stream ends with every position covered
    or raises ``RuntimeError`` on a bookkeeping hole.

    ``store`` (a :class:`repro.eval.shards.ResultStore`) turns the run
    into a *checkpointed* evaluation: the workbench is cut into
    deterministic shards (``shard_size`` loops each), shards already in
    the store are restored without scheduling, and every freshly
    completed shard is persisted immediately -- see
    :func:`repro.eval.shards.iter_schedule_suite_sharded`.
    """
    if jobs < 0:
        # Validated up front -- before the checkpoint short-circuit and
        # before any cache probing -- so the same bad argument fails
        # identically whether the loops end up restored, cached, serial,
        # or fanned out.
        raise ValueError(f"jobs must be >= 0 (0 = one worker per CPU), got {jobs}")
    if store is not None:
        from repro.eval.shards import DEFAULT_SHARD_SIZE, iter_schedule_suite_sharded

        yield from iter_schedule_suite_sharded(
            loops,
            rf,
            machine=machine,
            scale_to_clock=scale_to_clock,
            budget_ratio=budget_ratio,
            scheduler=scheduler,
            prefetch=prefetch,
            jobs=jobs,
            cache=cache,
            executor=executor,
            store=store,
            shard_size=shard_size or DEFAULT_SHARD_SIZE,
        )
        return
    rf_config = config_by_name(rf) if isinstance(rf, str) else rf
    base = machine or baseline_machine()
    # Built up front even when every loop turns out to be cached: this
    # validates the configuration and the scheduler name, so bad
    # arguments fail identically on cold and warm runs.  The serial path
    # below schedules on this same engine.
    engine, scaled, spec = _build_engine(
        rf_config, base, scale_to_clock, budget_ratio, scheduler
    )

    covered = 0
    keys: List[Optional[str]] = [None] * len(loops)
    #: key -> every workbench position that needs its (missing) result;
    #: only the first position of a group is actually scheduled.
    miss_groups: Dict[str, List[int]] = {}
    pending: List[Tuple[int, Loop]] = []
    if cache is not None:
        from repro.eval.cache import schedule_key

        hits: List[Tuple[int, LoopRun]] = []
        for position, loop in enumerate(loops):
            key = schedule_key(
                loop,
                rf_config,
                base,
                scale_to_clock=scale_to_clock,
                budget_ratio=budget_ratio,
                scheduler=scheduler,
                prefetch=prefetch,
            )
            keys[position] = key
            group = miss_groups.get(key)
            if group is not None:
                # Duplicate of a problem already queued this call: share
                # its result instead of scheduling it again.
                group.append(position)
                continue
            hit = cache.get(key)
            if hit is not None:
                hits.append((position, hit))
            else:
                miss_groups[key] = [position]
                pending.append((position, loop))
        for position, run in hits:
            covered += 1
            yield position, run, True
    else:
        pending = list(enumerate(loops))

    if pending:
        if jobs == 1 or len(pending) == 1:
            # Serial in-process path, on the engine built above -- still
            # incremental: each run is yielded the moment it exists.
            fresh = (
                (position, _schedule_one(loop, engine, scaled, spec, prefetch))
                for position, loop in pending
            )
        else:
            from repro.eval.parallel import iter_schedule_loops

            fresh = iter_schedule_loops(
                pending,
                rf_config,
                base,
                scale_to_clock=scale_to_clock,
                budget_ratio=budget_ratio,
                scheduler=scheduler,
                prefetch=prefetch,
                jobs=jobs,
                executor=executor,
            )
        for position, run in fresh:
            key = keys[position]
            if key is not None:
                cache.put(key, run)
                for duplicate in miss_groups[key]:
                    covered += 1
                    yield duplicate, run, duplicate != position
            else:
                covered += 1
                yield position, run, False
    if covered != len(loops):
        # Every position must be covered by a cache hit, a duplicate
        # group, or a fresh schedule; a hole is a bookkeeping bug and
        # silently dropping it would skew every downstream aggregate.
        raise RuntimeError(
            f"schedule_suite left {len(loops) - covered} of {len(loops)} "
            f"loops unscheduled"
        )


def schedule_suite(
    loops: Sequence[Loop],
    rf: RFConfig | str,
    *,
    machine: Optional[MachineConfig] = None,
    scale_to_clock: bool = True,
    budget_ratio: float = 6.0,
    scheduler: "str | PolicyBundle" = "mirs_hc",
    prefetch: Optional[PrefetchPolicy] = None,
    jobs: int = 1,
    cache: Optional["EvalCache"] = None,
    executor=None,
    store: "Optional[ResultStore]" = None,
    shard_size: Optional[int] = None,
) -> List[LoopRun]:
    """Schedule a whole workbench on one configuration.

    The barrier view of :func:`iter_schedule_suite`: the stream is
    collected into workbench order, so results are identical to the
    incremental path by construction.

    ``scheduler`` selects the policy bundle driving the engine (a
    registered name or a :class:`~repro.core.policy.PolicyBundle`); the
    default is the paper's MIRS_HC bundle.

    ``prefetch`` enables selective binding prefetching: the selected loads
    are scheduled with the configuration's miss latency (this is how the
    real-memory experiments of Figure 6 run the scheduler).

    ``jobs`` fans the workbench out over that many worker processes
    (``0`` means one per CPU); the default of ``1`` keeps the serial
    in-process path.  Results are in workbench order and identical to the
    serial path regardless of ``jobs``.  ``executor`` optionally reuses a
    live pool (sessions pass their warm workers) instead of spawning one.

    ``cache`` (an :class:`repro.eval.cache.EvalCache`) memoizes one
    result per unique (loop, configuration, knobs) problem: cache hits
    skip scheduling entirely, and only the missing loops are (re)scheduled
    -- serially or in parallel, as requested.

    ``store`` (a :class:`repro.eval.shards.ResultStore`) checkpoints the
    evaluation shard by shard: completed shards are restored from disk
    on a re-run, so an interrupted suite resumes where it stopped.
    """
    runs: List[Optional[LoopRun]] = [None] * len(loops)
    for position, run, _cached in iter_schedule_suite(
        loops,
        rf,
        machine=machine,
        scale_to_clock=scale_to_clock,
        budget_ratio=budget_ratio,
        scheduler=scheduler,
        prefetch=prefetch,
        jobs=jobs,
        cache=cache,
        executor=executor,
        store=store,
        shard_size=shard_size,
    ):
        runs[position] = run
    return list(runs)


def _ops_per_iteration(loop: Loop) -> int:
    """Operations of the original loop body (excluding live-in pseudo nodes)."""
    return sum(1 for op in loop.graph.nodes() if not op.op.is_pseudo)


# --------------------------------------------------------------------------- #
# Figure 1: IPC as a function of the number of resources
# --------------------------------------------------------------------------- #
def run_figure1(
    n_loops: int = DEFAULT_N_LOOPS,
    seed: int = DEFAULT_SEED,
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """IPC achieved by a monolithic 128-register machine as resources grow."""
    jobs, cache, executor, store = _engine_context(session, jobs, cache)
    loops = _suite(n_loops, seed)
    table = Table(
        ["resources", "fus", "mem_ports", "ipc", "efficiency"],
        title="Figure 1: IPC vs. machine resources (monolithic S128)",
    )
    points: List[Dict[str, float]] = []
    rf = config_by_name("S128")
    for machine in figure1_machines():
        runs = schedule_suite(
            loops, rf, machine=machine, scale_to_clock=False, jobs=jobs, cache=cache, executor=executor, store=store
        )
        total_ops = sum(
            _ops_per_iteration(run.loop) * run.loop.total_iterations for run in runs
        )
        total_cycles = aggregate_cycles(runs)
        ipc = total_ops / total_cycles if total_cycles else 0.0
        efficiency = ipc / (machine.n_fus + machine.n_mem_ports)
        label = f"{machine.n_fus}+{machine.n_mem_ports}"
        table.add_row(label, machine.n_fus, machine.n_mem_ports, ipc, efficiency)
        points.append(
            {
                "label": label,
                "n_fus": machine.n_fus,
                "n_mem_ports": machine.n_mem_ports,
                "ipc": ipc,
                "efficiency": efficiency,
            }
        )
    return ExperimentResult("figure1", table, {"points": points})


# --------------------------------------------------------------------------- #
# Table 1: cycle breakdown by loop bound for equally sized configurations
# --------------------------------------------------------------------------- #
def run_table1(
    n_loops: int = DEFAULT_N_LOOPS,
    seed: int = DEFAULT_SEED,
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """Execution-cycle breakdown (FU / MemPort / Rec / Com bound) per configuration."""
    jobs, cache, executor, store = _engine_context(session, jobs, cache)
    loops = _suite(n_loops, seed)
    categories = ["fu", "mem", "rec", "com"]
    labels = {"fu": "F.U.", "mem": "MemPort", "rec": "Rec.", "com": "Com."}
    table = Table(
        ["bound", "metric"] + [rf.name for rf in table1_configs()],
        title="Table 1: loop classification and execution cycles (128-register configurations)",
    )
    per_config: Dict[str, Dict[str, Dict[str, float]]] = {}
    totals: Dict[str, float] = {}
    for rf in table1_configs():
        runs = schedule_suite(loops, rf, jobs=jobs, cache=cache, executor=executor, store=store)
        breakdown = {c: {"loops": 0.0, "cycles": 0.0} for c in categories}
        for run in runs:
            bound = run.result.bound if run.result.bound in breakdown else "fu"
            breakdown[bound]["loops"] += 1
            breakdown[bound]["cycles"] += run.cycles
        per_config[rf.name] = breakdown
        totals[rf.name] = aggregate_cycles(runs)

    n = float(len(loops))
    for category in categories:
        table.add_row(
            labels[category],
            "% of loops",
            *[100.0 * per_config[rf.name][category]["loops"] / n for rf in table1_configs()],
        )
        table.add_row(
            labels[category],
            "exec cycles",
            *[per_config[rf.name][category]["cycles"] for rf in table1_configs()],
        )
    table.add_row("Total", "exec cycles", *[totals[rf.name] for rf in table1_configs()])
    ratios = {
        name: totals[name] / totals["S128"] if totals.get("S128") else float("nan")
        for name in totals
    }
    return ExperimentResult(
        "table1",
        table,
        {"breakdown": per_config, "totals": totals, "cycle_ratio_vs_s128": ratios},
    )


# --------------------------------------------------------------------------- #
# Table 2 and Table 5: hardware evaluation
# --------------------------------------------------------------------------- #
def _hardware_rows(configs: Sequence[RFConfig], title: str, name: str) -> ExperimentResult:
    machine = baseline_machine()
    table = Table(
        [
            "config", "lp-sp", "C access (ns)", "S access (ns)",
            "C area", "S area", "total area", "FO4", "clock (ns)", "mem/FU lat",
        ],
        title=title,
    )
    rows: Dict[str, Dict[str, object]] = {}
    for rf in configs:
        spec = derive_hardware(machine, rf)
        ports = f"{rf.lp}-{rf.sp}" if rf.has_cluster_banks and rf.has_shared_bank or rf.is_clustered else "-"
        c_access = spec.cluster_bank.access_ns if spec.cluster_bank else None
        s_access = spec.shared_bank.access_ns if spec.shared_bank else None
        c_area = spec.cluster_bank.area_mlambda2 if spec.cluster_bank else None
        s_area = spec.shared_bank.area_mlambda2 if spec.shared_bank else None
        table.add_row(
            rf.name, ports, c_access, s_access, c_area, s_area,
            spec.total_area_mlambda2, spec.logic_depth_fo4, spec.clock_ns,
            f"{spec.mem_hit_latency}/{spec.fu_latency}",
        )
        rows[rf.name] = {
            "lp": rf.lp,
            "sp": rf.sp,
            "cluster_access_ns": c_access,
            "shared_access_ns": s_access,
            "cluster_area": c_area,
            "shared_area": s_area,
            "total_area": spec.total_area_mlambda2,
            "logic_depth_fo4": spec.logic_depth_fo4,
            "clock_ns": spec.clock_ns,
            "mem_hit_latency": spec.mem_hit_latency,
            "fu_latency": spec.fu_latency,
            "loadr_latency": spec.loadr_latency,
        }
    return ExperimentResult(name, table, {"rows": rows})


def run_table2(
    n_loops: int = 0,
    seed: int = DEFAULT_SEED,
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """Access time and area of the 128-register configurations (Table 2).

    Purely analytical (no workbench, no scheduling): every parameter is
    accepted only to keep the driver interface uniform for the CLI.
    """
    del n_loops, seed, jobs, cache, session
    return _hardware_rows(
        table2_configs(),
        "Table 2: access time and area of 128-register configurations",
        "table2",
    )


def run_table5(
    n_loops: int = 0,
    seed: int = DEFAULT_SEED,
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """Hardware evaluation of the 15 configurations of Table 5.

    Purely analytical (no workbench, no scheduling): every parameter is
    accepted only to keep the driver interface uniform for the CLI.
    """
    del n_loops, seed, jobs, cache, session
    return _hardware_rows(
        table5_configs(),
        "Table 5: hardware evaluation of the evaluated RF configurations",
        "table5",
    )


# --------------------------------------------------------------------------- #
# Table 3: static evaluation with unbounded register banks
# --------------------------------------------------------------------------- #
def run_table3(
    n_loops: int = 64,
    seed: int = DEFAULT_SEED,
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """%MII achieved, total II and scheduling time with unbounded registers."""
    jobs, cache, executor, store = _engine_context(session, jobs, cache)
    loops = _suite(n_loops, seed)
    table = Table(
        [
            "config", "lp-sp",
            "*%MII", "*sum II", "*sched s",
            "%MII", "sum II", "sched s",
        ],
        title="Table 3: static evaluation with unbounded registers "
              "(* = unlimited inter-bank bandwidth)",
    )
    rows: Dict[str, Dict[str, float]] = {}
    for unlimited, limited in table3_configs():
        per_variant = []
        for variant in (unlimited, limited):
            runs = schedule_suite(
                loops, variant, scale_to_clock=False, jobs=jobs, cache=cache, executor=executor, store=store
            )
            achieved = sum(1 for run in runs if run.result.achieved_mii)
            sum_ii = sum(run.result.ii for run in runs if run.result.success)
            sched_time = sum(run.result.scheduling_time_s for run in runs)
            per_variant.append(
                {
                    "pct_mii": 100.0 * achieved / len(runs),
                    "sum_ii": sum_ii,
                    "sched_time_s": sched_time,
                }
            )
        name = limited.name
        table.add_row(
            name,
            f"{limited.lp}-{limited.sp}",
            per_variant[0]["pct_mii"], per_variant[0]["sum_ii"], per_variant[0]["sched_time_s"],
            per_variant[1]["pct_mii"], per_variant[1]["sum_ii"], per_variant[1]["sched_time_s"],
        )
        rows[name] = {
            "unlimited": per_variant[0],
            "limited": per_variant[1],
        }
    return ExperimentResult("table3", table, {"rows": rows})


# --------------------------------------------------------------------------- #
# Table 4: MIRS_HC vs. the non-iterative hierarchical scheduler
# --------------------------------------------------------------------------- #
def run_table4(
    n_loops: int = DEFAULT_N_LOOPS,
    seed: int = DEFAULT_SEED,
    config_name: str = "1C32S64",
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """Head-to-head II comparison on a hierarchical non-clustered configuration."""
    jobs, cache, executor, store = _engine_context(session, jobs, cache)
    loops = _suite(n_loops, seed)
    iterative = schedule_suite(
        loops, config_name, scheduler="mirs_hc", jobs=jobs, cache=cache, executor=executor, store=store
    )
    baseline = schedule_suite(
        loops, config_name, scheduler="non_iterative", jobs=jobs, cache=cache, executor=executor, store=store
    )

    better = {"count": 0, "baseline_ii": 0, "mirs_ii": 0}
    equal = {"count": 0, "baseline_ii": 0, "mirs_ii": 0}
    worse = {"count": 0, "baseline_ii": 0, "mirs_ii": 0}
    for run_m, run_b in zip(iterative, baseline):
        ii_m = run_m.result.ii if run_m.result.success else run_m.result.mii * 8
        ii_b = run_b.result.ii if run_b.result.success else run_b.result.mii * 8
        if ii_b < ii_m:
            bucket = better          # the non-iterative scheduler is better
        elif ii_b == ii_m:
            bucket = equal
        else:
            bucket = worse
        bucket["count"] += 1
        bucket["baseline_ii"] += ii_b
        bucket["mirs_ii"] += ii_m

    table = Table(
        ["comparison", "loops", "non-iterative sum II", "MIRS_HC sum II"],
        title=f"Table 4: non-iterative scheduler vs MIRS_HC ({config_name})",
    )
    table.add_row("non-iterative better", better["count"], better["baseline_ii"], better["mirs_ii"])
    table.add_row("equal", equal["count"], equal["baseline_ii"], equal["mirs_ii"])
    table.add_row("non-iterative worse", worse["count"], worse["baseline_ii"], worse["mirs_ii"])
    table.add_row(
        "total",
        better["count"] + equal["count"] + worse["count"],
        better["baseline_ii"] + equal["baseline_ii"] + worse["baseline_ii"],
        better["mirs_ii"] + equal["mirs_ii"] + worse["mirs_ii"],
    )
    return ExperimentResult(
        "table4",
        table,
        {"better": better, "equal": equal, "worse": worse, "config": config_name},
    )


# --------------------------------------------------------------------------- #
# Table 6: performance with an ideal memory system
# --------------------------------------------------------------------------- #
def run_table6(
    n_loops: int = DEFAULT_N_LOOPS,
    seed: int = DEFAULT_SEED,
    reference: str = "S64",
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """Execution cycles, memory traffic, execution time and speedup vs S64."""
    jobs, cache, executor, store = _engine_context(session, jobs, cache)
    loops = _suite(n_loops, seed)
    raw: Dict[str, Dict[str, float]] = {}
    for rf in table6_configs():
        runs = schedule_suite(loops, rf, jobs=jobs, cache=cache, executor=executor, store=store)
        raw[rf.name] = {
            "cycles": aggregate_cycles(runs),
            "traffic": aggregate_traffic(runs),
            "time_ns": aggregate_time_ns(runs),
            "failed": sum(1 for run in runs if not run.result.success),
        }
    ref_time = raw[reference]["time_ns"]
    table = Table(
        ["config", "lp-sp", "exec cycles", "mem traffic", "rel exec time", "speedup"],
        title=f"Table 6: ideal-memory performance (relative to {reference})",
    )
    rows: Dict[str, Dict[str, float]] = {}
    for rf in table6_configs():
        entry = raw[rf.name]
        rel_time = entry["time_ns"] / ref_time if ref_time else float("nan")
        ports = f"{rf.lp}-{rf.sp}" if rf.has_cluster_banks else "-"
        table.add_row(
            rf.name, ports, entry["cycles"], entry["traffic"], rel_time,
            1.0 / rel_time if rel_time else float("nan"),
        )
        rows[rf.name] = {
            **entry,
            "relative_time": rel_time,
            "speedup": 1.0 / rel_time if rel_time else float("nan"),
        }
    return ExperimentResult("table6", table, {"rows": rows, "reference": reference})


# --------------------------------------------------------------------------- #
# Figure 4: LoadR / StoreR port requirements
# --------------------------------------------------------------------------- #
def _figure4_config(n_clusters: int) -> RFConfig:
    """Hierarchical configuration with unbounded shared bank and wide ports."""
    cluster_regs = 32 if n_clusters <= 2 else 16
    return RFConfig(
        n_clusters=n_clusters,
        cluster_regs=cluster_regs,
        shared_regs=UNBOUNDED,
        lp=16,
        sp=16,
    )


def run_figure4(
    n_loops: int = 64,
    seed: int = DEFAULT_SEED,
    max_ports: int = 6,
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """Cumulative distribution of the lp / sp ports loops need per cluster bank."""
    jobs, cache, executor, store = _engine_context(session, jobs, cache)
    loops = _suite(n_loops, seed)
    table = Table(
        ["clusters"] + [f"lp<={p}" for p in range(max_ports + 1)]
        + [f"sp<={p}" for p in range(max_ports + 1)],
        title="Figure 4: cumulative % of loops needing at most n LoadR/StoreR ports",
    )
    data: Dict[int, Dict[str, List[float]]] = {}
    for n_clusters in figure4_cluster_counts():
        rf = _figure4_config(n_clusters)
        runs = schedule_suite(loops, rf, scale_to_clock=False, jobs=jobs, cache=cache, executor=executor, store=store)
        lp_needed: List[int] = []
        sp_needed: List[int] = []
        for run in runs:
            result = run.result
            if not result.success or result.graph is None:
                lp_needed.append(max_ports)
                sp_needed.append(max_ports)
                continue
            loadr_per_cluster = [0] * n_clusters
            storer_per_cluster = [0] * n_clusters
            for op in result.graph.communication_operations():
                placed = result.assignments.get(op.node_id)
                if placed is None or placed.cluster is None or placed.cluster < 0:
                    continue
                if op.op.mnemonic == "loadr":
                    loadr_per_cluster[placed.cluster] += 1
                elif op.op.mnemonic == "storer":
                    storer_per_cluster[placed.cluster] += 1
            ii = max(1, result.ii)
            lp_needed.append(max((count + ii - 1) // ii for count in loadr_per_cluster) if loadr_per_cluster else 0)
            sp_needed.append(max((count + ii - 1) // ii for count in storer_per_cluster) if storer_per_cluster else 0)
        n = float(len(runs))
        lp_cdf = [100.0 * sum(1 for v in lp_needed if v <= p) / n for p in range(max_ports + 1)]
        sp_cdf = [100.0 * sum(1 for v in sp_needed if v <= p) / n for p in range(max_ports + 1)]
        table.add_row(n_clusters, *lp_cdf, *sp_cdf)
        data[n_clusters] = {"lp_cdf": lp_cdf, "sp_cdf": sp_cdf}
    return ExperimentResult("figure4", table, {"cdf": data})


# --------------------------------------------------------------------------- #
# Figure 6: real memory system with binding prefetching
# --------------------------------------------------------------------------- #
def run_figure6(
    n_loops: int = 64,
    seed: int = DEFAULT_SEED,
    reference: str = "S64",
    prefetch: Optional[PrefetchPolicy] = None,
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """Useful / stall cycles and execution time under the real memory system."""
    jobs, cache, executor, store = _engine_context(session, jobs, cache)
    loops = _suite(n_loops, seed)
    policy = prefetch or PrefetchPolicy()
    machine = baseline_machine()
    raw: Dict[str, Dict[str, float]] = {}
    for rf in figure6_configs():
        spec = derive_hardware(machine, rf)
        runs = schedule_suite(loops, rf, prefetch=policy, jobs=jobs, cache=cache, executor=executor, store=store)
        cache_config = CacheConfig(
            size_bytes=machine.cache_size_bytes,
            line_bytes=machine.cache_line_bytes,
            max_pending=machine.cache_max_pending,
            hit_latency=spec.mem_hit_latency,
            miss_latency=spec.miss_latency_cycles(machine.miss_latency_ns),
        )
        useful = 0.0
        stall = 0.0
        misses = 0
        for run in runs:
            stats = simulate_loop_execution(run.loop, run.result, cache_config)
            useful += stats.useful_cycles
            stall += stats.stall_cycles
            misses += stats.n_misses
        raw[rf.name] = {
            "useful_cycles": useful,
            "stall_cycles": stall,
            "total_cycles": useful + stall,
            "useful_time_ns": useful * spec.clock_ns,
            "stall_time_ns": stall * spec.clock_ns,
            "total_time_ns": (useful + stall) * spec.clock_ns,
            "misses": misses,
            "clock_ns": spec.clock_ns,
        }
    ref_cycles = raw[reference]["useful_cycles"]
    ref_time = raw[reference]["total_time_ns"]
    table = Table(
        [
            "config", "useful cycles (rel)", "stall cycles (rel)",
            "total cycles (rel)", "total time (rel)", "speedup",
        ],
        title=f"Figure 6: real-memory evaluation (relative to {reference} useful cycles / total time)",
    )
    rows: Dict[str, Dict[str, float]] = {}
    for rf in figure6_configs():
        entry = raw[rf.name]
        rel_useful = entry["useful_cycles"] / ref_cycles
        rel_stall = entry["stall_cycles"] / ref_cycles
        rel_total_time = entry["total_time_ns"] / ref_time
        table.add_row(
            rf.name, rel_useful, rel_stall, rel_useful + rel_stall,
            rel_total_time, 1.0 / rel_total_time if rel_total_time else float("nan"),
        )
        rows[rf.name] = {
            **entry,
            "relative_useful": rel_useful,
            "relative_stall": rel_stall,
            "relative_time": rel_total_time,
            "speedup": 1.0 / rel_total_time if rel_total_time else float("nan"),
        }
    return ExperimentResult("figure6", table, {"rows": rows, "reference": reference})


# --------------------------------------------------------------------------- #
# Ablations (beyond the paper's tables)
# --------------------------------------------------------------------------- #
def run_ablation_budget_ratio(
    ratios: Sequence[float] = (1.0, 2.0, 4.0, 6.0, 10.0),
    n_loops: int = 48,
    seed: int = DEFAULT_SEED,
    config_name: str = "4C32S16",
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """Sensitivity of schedule quality and scheduling time to Budget_Ratio."""
    jobs, cache, executor, store = _engine_context(session, jobs, cache)
    loops = _suite(n_loops, seed)
    table = Table(
        ["budget_ratio", "sum II", "failed", "%MII", "sched time (s)"],
        title=f"Ablation: Budget_Ratio sensitivity on {config_name}",
    )
    rows = {}
    for ratio in ratios:
        runs = schedule_suite(
            loops, config_name, budget_ratio=ratio, jobs=jobs, cache=cache, executor=executor, store=store
        )
        # Loops the scheduler gives up on are charged a large penalty so
        # that starving the budget shows up in the aggregate instead of
        # silently shrinking the sum.
        sum_ii = sum(
            run.result.ii if run.result.success else 8 * run.result.mii
            for run in runs
        )
        failed = sum(1 for run in runs if not run.result.success)
        pct_mii = 100.0 * sum(1 for r in runs if r.result.achieved_mii) / len(runs)
        sched = sum(run.result.scheduling_time_s for run in runs)
        table.add_row(ratio, sum_ii, failed, pct_mii, sched)
        rows[ratio] = {
            "sum_ii": sum_ii,
            "failed": failed,
            "pct_mii": pct_mii,
            "sched_time_s": sched,
        }
    return ExperimentResult("ablation_budget_ratio", table, {"rows": rows})


def run_ablation_prefetch(
    n_loops: int = 48,
    seed: int = DEFAULT_SEED,
    config_name: str = "4C32S16",
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """Effect of selective binding prefetching on stall cycles (one configuration)."""
    jobs, cache, executor, store = _engine_context(session, jobs, cache)
    loops = _suite(n_loops, seed)
    machine = baseline_machine()
    rf = config_by_name(config_name)
    spec = derive_hardware(machine, rf)
    cache_config = CacheConfig(
        size_bytes=machine.cache_size_bytes,
        line_bytes=machine.cache_line_bytes,
        max_pending=machine.cache_max_pending,
        hit_latency=spec.mem_hit_latency,
        miss_latency=spec.miss_latency_cycles(machine.miss_latency_ns),
    )
    table = Table(
        ["prefetch", "useful cycles", "stall cycles", "stall share"],
        title=f"Ablation: binding prefetching on {config_name}",
    )
    rows = {}
    for enabled in (False, True):
        policy = PrefetchPolicy(enabled=enabled)
        runs = schedule_suite(loops, rf, prefetch=policy, jobs=jobs, cache=cache, executor=executor, store=store)
        useful = 0.0
        stall = 0.0
        for run in runs:
            stats = simulate_loop_execution(run.loop, run.result, cache_config)
            useful += stats.useful_cycles
            stall += stats.stall_cycles
        share = stall / (useful + stall) if useful + stall else 0.0
        table.add_row("on" if enabled else "off", useful, stall, share)
        rows[enabled] = {"useful": useful, "stall": stall, "stall_share": share}
    return ExperimentResult("ablation_prefetch", table, {"rows": rows})


def run_ablation_ports(
    port_counts: Sequence[Tuple[int, int]] = ((1, 1), (2, 1), (3, 2), (4, 2)),
    n_loops: int = 48,
    seed: int = DEFAULT_SEED,
    base_config: str = "4C16S16",
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """Sensitivity of the achieved II to the number of lp/sp ports."""
    jobs, cache, executor, store = _engine_context(session, jobs, cache)
    loops = _suite(n_loops, seed)
    base = config_by_name(base_config)
    table = Table(
        ["lp", "sp", "sum II", "%MII"],
        title=f"Ablation: inter-level port count sensitivity on {base_config}",
    )
    rows = {}
    for lp, sp in port_counts:
        rf = base.with_ports(lp, sp)
        runs = schedule_suite(loops, rf, jobs=jobs, cache=cache, executor=executor, store=store)
        sum_ii = sum(run.result.ii for run in runs if run.result.success)
        pct_mii = 100.0 * sum(1 for r in runs if r.result.achieved_mii) / len(runs)
        table.add_row(lp, sp, sum_ii, pct_mii)
        rows[(lp, sp)] = {"sum_ii": sum_ii, "pct_mii": pct_mii}
    return ExperimentResult("ablation_ports", table, {"rows": rows})


def run_ablation_policies(
    n_loops: int = 48,
    seed: int = DEFAULT_SEED,
    config_name: str = "4C16S16",
    policies: Optional[Sequence[str]] = None,
    *,
    jobs: Optional[int] = None,
    cache: Optional["EvalCache"] = None,
    session: "Optional[Session]" = None,
) -> ExperimentResult:
    """Head-to-head comparison of every registered policy bundle.

    Schedules the same workbench on the same configuration once per
    bundle, so every heuristic the paper describes (HRMS-style ordering,
    Select_Cluster, spill-victim choice, the II search, and
    backtracking itself) can be ablated against the MIRS_HC defaults.
    Bundles default to every registered one (see
    :func:`repro.core.policy.bundle_names`).
    """
    jobs, cache, executor, store = _engine_context(session, jobs, cache)
    loops = _suite(n_loops, seed)
    names = list(policies) if policies else bundle_names()
    table = Table(
        [
            "policy", "axes", "sum II", "failed", "%MII",
            "spill mem", "comm", "pressure checks", "sched s",
        ],
        title=f"Ablation: policy bundles on {config_name} ({n_loops} loops)",
    )
    rows: Dict[str, Dict[str, object]] = {}
    for name in names:
        bundle = resolve_bundle(name)
        runs = schedule_suite(loops, config_name, scheduler=name, jobs=jobs, cache=cache, executor=executor, store=store)
        # Loops a bundle gives up on are charged a penalty so weak
        # bundles show up in the aggregate instead of shrinking the sum.
        sum_ii = sum(
            run.result.ii if run.result.success else 8 * run.result.mii
            for run in runs
        )
        failed = sum(1 for run in runs if not run.result.success)
        pct_mii = 100.0 * sum(1 for r in runs if r.result.achieved_mii) / len(runs)
        spill_mem = sum(run.result.n_spill_memory_ops for run in runs)
        comm = sum(run.result.n_comm_ops for run in runs)
        checks = sum(run.result.n_pressure_checks for run in runs)
        sched = sum(run.result.scheduling_time_s for run in runs)
        axes = "/".join(
            (bundle.ordering, bundle.cluster, bundle.spill, bundle.ii_search)
        ) + ("" if bundle.backtracking else " (non-iter)")
        table.add_row(name, axes, sum_ii, failed, pct_mii, spill_mem, comm, checks, sched)
        rows[name] = {
            "axes": bundle.axes(),
            "sum_ii": sum_ii,
            "failed": failed,
            "pct_mii": pct_mii,
            "spill_mem": spill_mem,
            "comm": comm,
            "pressure_checks": checks,
            "sched_time_s": sched,
        }
    return ExperimentResult(
        "ablation_policies", table, {"rows": rows, "config": config_name}
    )
