"""Command-line interface.

Eleven sub-commands cover the common workflows::

    python -m repro.cli schedule daxpy 4C16S16 --code --registers
    python -m repro.cli evaluate 4C16S16 S64 --tier full --jobs 0 \\
        --checkpoint .repro-checkpoint
    python -m repro.cli explore --budget 32 --seed 7 --tier small \\
        --algo evolve --db runs.sqlite
    python -m repro.cli reproduce table6 --loops 48 --jobs 0 --cache .repro-cache
    python -m repro.cli fuzz --seeds 200 --budget 120s --corpus tests/corpus
    python -m repro.cli serve --port 8734 --jobs 0 --cache .repro-cache \\
        --db runs.sqlite
    python -m repro.cli serve --coordinator --checkpoint .repro-fleet
    python -m repro.cli worker --url http://127.0.0.1:8734 --jobs 0
    python -m repro.cli submit schedule daxpy 4C16S16
    python -m repro.cli report --db runs.sqlite --html report.html
    python -m repro.cli schema --out repro-schema.json
    python -m repro.cli bench run --tier small --out BENCH_workbench.json

* ``schedule`` schedules one named kernel on one configuration and prints
  the kernel table (optionally the register allocation, the emitted
  software-pipelined code, or the serialized JSON result);
* ``evaluate`` compares configurations on a workbench (area, clock,
  cycles, execution time);
* ``explore`` runs a budgeted Pareto search over the register-file
  design space (seeded ``random`` or ``evolve`` with successive-halving
  promotion) and prints the non-dominated (area, execution-time)
  frontier plus its content digest; with ``--db`` every probe persists
  and ``--resume`` replays a run with zero re-evaluations;
* ``reproduce`` regenerates one of the paper's tables/figures (or ``all``);
* ``fuzz`` hunts for scheduler/codegen/allocation bugs by differentially
  executing randomized loops on preset or randomly sampled
  configurations (failures are shrunk and frozen as corpus cases;
  ``--replay FILE`` re-runs one such case);
* ``serve`` runs the batch scheduling service: one long-lived
  :class:`~repro.session.Session` (warm cache, warm worker pool) behind
  a small HTTP API (see :mod:`repro.service`); with ``--coordinator``
  it also hands evaluate jobs out to a fleet of pull-based workers as
  content-addressed shard leases;
* ``worker`` runs one fleet worker against a coordinator: pull a shard
  lease, schedule its loops locally, post the result envelope back;
* ``submit`` sends one job to a running ``serve`` instance, polls it to
  completion and prints the JSON result envelope;
* ``report`` queries a ``serve --db`` run table (filter by
  configuration, policy, tier, loop name, time range), prints the
  paper-style aggregate table, and optionally renders the
  self-contained HTML report and/or the notebook CSV;
* ``schema`` writes the machine-readable serialization schema that wire
  results validate against;
* ``bench`` runs the workbench benchmark (``bench run`` writes the
  ``BENCH_workbench.json`` trajectory record) and gates fresh records
  against committed baselines (``bench compare``).

Every scheduling sub-command builds a :class:`repro.session.Session`
from its flags: ``--jobs N`` (worker processes; ``0`` = one per CPU),
``--cache DIR`` (persist scheduling results on disk), and -- where it
makes sense -- ``--policy BUNDLE`` (``reproduce ablation_policies``
compares all of them; ``fuzz`` takes ``--policies BUNDLE... | all``).
Workbench-sized commands additionally take ``--tier`` (the stratified
workbench registry; ``--loops`` beyond the tier size is an error) and
``--checkpoint DIR`` / ``--resume`` / ``--shard-size N`` (persist every
completed evaluation shard so an interrupted run resumes where it
stopped).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.core.allocation import allocate_registers
from repro.core.codegen import generate_code
from repro.core.policy import bundle_names
from repro.eval import experiments
from repro.eval.cache import EvalCache
from repro.eval.shards import DEFAULT_SHARD_SIZE, ResultStore
from repro.hwmodel.timing import scaled_machine
from repro.machine.presets import baseline_machine, config_by_name
from repro.session import Session
from repro.workloads.kernels import kernel_names
from repro.workloads.suite import WorkbenchSizeError, tier_names

__all__ = ["main", "build_parser"]

#: Mapping of ``reproduce`` targets to experiment drivers.
EXPERIMENT_DRIVERS: Dict[str, Callable[..., "experiments.ExperimentResult"]] = {
    "figure1": experiments.run_figure1,
    "table1": experiments.run_table1,
    "table2": experiments.run_table2,
    "table3": experiments.run_table3,
    "table4": experiments.run_table4,
    "table5": experiments.run_table5,
    "table6": experiments.run_table6,
    "figure4": experiments.run_figure4,
    "figure6": experiments.run_figure6,
    "ablation_policies": experiments.run_ablation_policies,
}

DEFAULT_SERVICE_PORT = 8734


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hierarchical clustered register files for VLIW processors "
        "(IPDPS 2003 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_flags(
        command: argparse.ArgumentParser, *, policy: bool = True
    ) -> None:
        command.add_argument(
            "--jobs", type=_nonnegative_int, default=1, metavar="N",
            help="schedule loops over N worker processes (0 = one per CPU; "
                 "default: 1, serial)",
        )
        command.add_argument(
            "--cache", default=None, metavar="DIR",
            help="cache scheduling results in DIR so identical "
                 "(loop, configuration) pairs are never re-scheduled "
                 "(default: no cache)",
        )
        if policy:
            command.add_argument(
                "--policy", default="mirs_hc", choices=bundle_names(),
                metavar="BUNDLE",
                help="policy bundle driving the scheduling engine "
                     f"(default: mirs_hc; known: {', '.join(bundle_names())})",
            )

    def add_checkpoint_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--checkpoint", default=None, metavar="DIR",
            help="persist every completed evaluation shard in DIR; a "
                 "re-run with the same DIR restores completed shards "
                 "instead of re-scheduling them (default: no checkpoint)",
        )
        command.add_argument(
            "--resume", action="store_true",
            help="require that --checkpoint DIR already holds shards to "
                 "resume from (guards against resuming into an empty or "
                 "mistyped directory)",
        )
        command.add_argument(
            "--shard-size", type=_positive_int, default=DEFAULT_SHARD_SIZE,
            metavar="N",
            help=f"loops per checkpoint shard (default: {DEFAULT_SHARD_SIZE})",
        )

    schedule = sub.add_parser("schedule", help="schedule one kernel on one configuration")
    schedule.add_argument("kernel", choices=sorted(kernel_names()))
    schedule.add_argument("config", help="register-file configuration, e.g. 4C16S16")
    schedule.add_argument("--budget-ratio", type=float, default=6.0)
    schedule.add_argument("--registers", action="store_true",
                          help="also print the wrap-around register allocation")
    schedule.add_argument("--code", action="store_true",
                          help="also print the software-pipelined code")
    schedule.add_argument("--json", action="store_true",
                          help="print the serialized JSON result envelope "
                               "instead of the human-readable tables")
    add_engine_flags(schedule)

    evaluate = sub.add_parser("evaluate", help="compare configurations on a workbench")
    evaluate.add_argument("configs", nargs="+", help="configuration names")
    evaluate.add_argument(
        "--loops", type=int, default=None,
        help="workbench size (default: 32, or the whole tier when --tier "
             "is given explicitly)",
    )
    evaluate.add_argument("--seed", type=int, default=2003)
    evaluate.add_argument(
        "--tier", default=None, choices=tier_names(),
        help="workbench tier the loops are drawn from (default: standard); "
             "naming a tier without --loops evaluates the whole tier, and "
             "--loops beyond the tier size is an error, not a truncation",
    )
    evaluate.add_argument("--reference", default="S64")
    add_engine_flags(evaluate)
    add_checkpoint_flags(evaluate)

    reproduce = sub.add_parser(
        "reproduce",
        help="regenerate a table/figure of the paper (or the policy ablation)",
    )
    reproduce.add_argument("target", choices=sorted(EXPERIMENT_DRIVERS) + ["all"])
    reproduce.add_argument("--loops", type=int, default=48)
    reproduce.add_argument("--seed", type=int, default=2003)
    # No --policy: the paper's tables are defined for the MIRS_HC bundle;
    # 'reproduce ablation_policies' compares every registered bundle.
    add_engine_flags(reproduce, policy=False)
    add_checkpoint_flags(reproduce)

    fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the scheduling pipeline "
             "(schedule -> validate -> emit -> execute vs. reference)",
    )
    fuzz.add_argument("--seeds", type=int, default=100, metavar="N",
                      help="number of fuzz cases (default: 100)")
    fuzz.add_argument("--base-seed", type=int, default=2003,
                      help="seed of the first case; case k uses base+k")
    fuzz.add_argument("--configs", nargs="+", default=None, metavar="CFG",
                      help="preset configurations to rotate through "
                           "(default: S128 S64 4C16S16)")
    fuzz.add_argument("--profiles", nargs="+", default=None, metavar="PROF",
                      help="generator profiles to draw loops from "
                           "(default: all profiles)")
    fuzz.add_argument("--policies", nargs="+", default=None, metavar="BUNDLE",
                      choices=bundle_names() + ["all"],
                      help="policy bundles to draw schedulers from; the "
                           "special value 'all' covers every registered "
                           "bundle (default: mirs_hc only)")
    fuzz.add_argument("--sample-configs", action="store_true",
                      help="sample a random machine/register-file pair per "
                           "case instead of rotating through --configs")
    fuzz.add_argument("--budget", type=_duration, default=None, metavar="TIME",
                      help="wall-clock budget, e.g. 60s or 5m "
                           "(the run stops early once exceeded)")
    fuzz.add_argument("--budget-ratio", type=float, default=6.0,
                      help="scheduler backtracking budget per node")
    fuzz.add_argument("--iterations", type=int, default=None, metavar="N",
                      help="iterations to execute differentially "
                           "(default: pipeline depth + a small window)")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="write minimized failing cases into DIR "
                           "(e.g. tests/corpus)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="freeze failures as-is instead of minimizing them")
    fuzz.add_argument("--replay", default=None, metavar="FILE",
                      help="replay one corpus case file and exit")

    serve = sub.add_parser(
        "serve",
        help="run the batch scheduling service (one warm session, "
             "many clients) behind a small HTTP API",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                       help=f"TCP port (default: {DEFAULT_SERVICE_PORT}; "
                            f"0 = pick a free one)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.add_argument(
        "--coordinator", action="store_true",
        help="also act as a fleet coordinator: evaluate jobs are planned "
             "into shards and handed out as leases to workers that "
             "connect with 'repro worker --url' (completed shards are "
             "persisted through --checkpoint DIR, or a temporary store)",
    )
    serve.add_argument(
        "--lease-timeout", type=_duration, default=60.0, metavar="TIME",
        help="fleet lease timeout (default: 60s); a worker silent for "
             "this long loses its shard to the next puller",
    )
    serve.add_argument(
        "--db", default=None, metavar="PATH",
        help="durable service state: a SQLite run database at PATH "
             "(jobs survive restarts, finished runs land in a queryable "
             "run table, and 'repro report' renders from it); "
             "default: in-memory only",
    )
    serve.add_argument(
        "--quota", type=_positive_int, default=None, metavar="N",
        help="per-client queued-job quota (submissions past it answer "
             "HTTP 429; default: unlimited)",
    )
    add_engine_flags(serve)
    add_checkpoint_flags(serve)

    worker = sub.add_parser(
        "worker",
        help="run one fleet worker against a 'repro serve --coordinator' "
             "instance: pull shard leases, schedule them locally, post "
             "the results back",
    )
    worker.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_SERVICE_PORT}",
                        metavar="URL", help="coordinator base URL")
    worker.add_argument("--name", default=None,
                        help="worker name shown in GET /v2/workers "
                             "(default: the coordinator-assigned id)")
    worker.add_argument("--jobs", type=_nonnegative_int, default=1, metavar="N",
                        help="local worker processes per shard "
                             "(0 = one per CPU; default: 1, serial)")
    worker.add_argument("--cache", default=None, metavar="DIR",
                        help="local scheduling-result cache (same as the "
                             "other sub-commands' --cache)")
    worker.add_argument("--poll", type=float, default=0.5, metavar="S",
                        help="idle lease-poll interval in seconds "
                             "(default: 0.5, backed off while idle)")
    worker.add_argument("--max-leases", type=_positive_int, default=None,
                        metavar="N",
                        help="exit after completing N leases "
                             "(default: run until killed)")
    worker.add_argument("--idle-exit", type=_duration, default=None,
                        metavar="TIME",
                        help="exit after this long without any work "
                             "(default: keep polling forever)")

    submit = sub.add_parser(
        "submit",
        help="submit one job to a running 'repro serve', poll it to "
             "completion and print the JSON result envelope",
    )
    submit.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_SERVICE_PORT}",
                        metavar="URL", help="service base URL")
    submit.add_argument("--timeout", type=_duration, default=300.0, metavar="TIME",
                        help="give up after this long (default: 300s)")
    submit.add_argument("--poll", type=float, default=0.25, metavar="S",
                        help="poll interval in seconds (default: 0.25)")
    submit.add_argument("--validate", action="store_true",
                        help="validate the result envelope against the "
                             "service's serialization schema")
    submit.add_argument("--client", default=None, metavar="NAME",
                        help="client name for the service's fairness/quota "
                             "accounting (default: anonymous)")
    submit_kind = submit.add_subparsers(dest="kind", required=True)
    submit_schedule = submit_kind.add_parser(
        "schedule", help="schedule one kernel on one configuration")
    submit_schedule.add_argument("kernel", choices=sorted(kernel_names()))
    submit_schedule.add_argument("config")
    submit_schedule.add_argument("--policy", default=None, choices=bundle_names())
    submit_schedule.add_argument("--param", action="append", default=[],
                                 metavar="KEY=VALUE",
                                 help="kernel parameter, e.g. --param taps=8")
    submit_evaluate = submit_kind.add_parser(
        "evaluate", help="evaluate a workbench on one configuration")
    submit_evaluate.add_argument("config")
    submit_evaluate.add_argument(
        "--loops", type=int, default=None,
        help="workbench size (default: 16, or the whole tier when --tier "
             "is given)",
    )
    submit_evaluate.add_argument("--seed", type=int, default=2003)
    submit_evaluate.add_argument("--tier", default=None, choices=tier_names(),
                                 help="workbench tier to draw the loops from "
                                      "(without --loops: the whole tier)")
    submit_evaluate.add_argument("--policy", default=None, choices=bundle_names())

    report = sub.add_parser(
        "report",
        help="query a 'serve --db' run table and render the paper-style "
             "report (stdout table, optional self-contained HTML and CSV)",
    )
    report.add_argument("--db", required=True, metavar="PATH",
                        help="the SQLite run database written by "
                             "'repro serve --db PATH'")
    report.add_argument("--config", action="append", default=[], metavar="CFG",
                        help="only runs on this configuration (repeatable)")
    report.add_argument("--policy", action="append", default=[],
                        metavar="BUNDLE",
                        help="only runs under this policy bundle (repeatable)")
    report.add_argument("--tier", action="append", default=[], metavar="TIER",
                        help="only runs from this workbench tier (repeatable)")
    report.add_argument("--loop", default=None, metavar="SUBSTR",
                        help="only runs whose loop name contains SUBSTR")
    report.add_argument("--since", type=float, default=None, metavar="TS",
                        help="only runs created at/after this UNIX timestamp")
    report.add_argument("--until", type=float, default=None, metavar="TS",
                        help="only runs created before this UNIX timestamp")
    report.add_argument("--limit", type=_positive_int, default=None,
                        metavar="N", help="at most N run rows (oldest first)")
    report.add_argument("--html", default=None, metavar="FILE",
                        help="write the self-contained HTML report to FILE")
    report.add_argument("--csv", default=None, metavar="FILE",
                        help="write the raw run table as CSV to FILE")

    explore = sub.add_parser(
        "explore",
        help="search the register-file design space for the Pareto "
             "frontier of (RF area, execution time)",
    )
    explore.add_argument(
        "--budget", type=_positive_int, default=16, metavar="N",
        help="total number of design-point measurements, cheap probes "
             "included (default: 16)",
    )
    explore.add_argument(
        "--seed", type=int, default=0,
        help="search seed; the probe trace and the final frontier digest "
             "are pure functions of it (default: 0)",
    )
    explore.add_argument(
        "--tier", default="small", choices=tier_names(),
        help="workbench tier frontier candidates are evaluated on "
             "(default: small)",
    )
    explore.add_argument(
        "--loops", type=int, default=None, metavar="N",
        help="evaluate candidates on only the tier's first N loops "
             "(default: the whole tier)",
    )
    explore.add_argument(
        "--algo", default="random", choices=("random", "evolve"),
        help="search strategy: seeded uniform sampling (random, default) "
             "or mutate/crossover with successive-halving promotion "
             "(evolve)",
    )
    explore.add_argument(
        "--probe-tier", default="tiny", choices=tier_names(),
        help="cheap tier 'evolve' probes candidates on before promotion "
             "(default: tiny)",
    )
    explore.add_argument(
        "--db", default=None, metavar="PATH",
        help="persist every completed probe in this SQLite run database; "
             "a rerun over the same PATH restores completed probes "
             "instead of re-evaluating them (default: no store)",
    )
    explore.add_argument(
        "--resume", action="store_true",
        help="require that --db PATH already holds completed probes to "
             "resume from (guards against resuming into an empty or "
             "mistyped database)",
    )
    explore.add_argument(
        "--json", action="store_true",
        help="print the serialized explore-report envelope instead of "
             "the human-readable frontier table",
    )
    add_engine_flags(explore)

    schema = sub.add_parser(
        "schema",
        help="write the machine-readable serialization schema "
             "(what service results validate against)",
    )
    schema.add_argument("--out", default=None, metavar="FILE",
                        help="write to FILE instead of stdout")

    bench = sub.add_parser(
        "bench",
        help="run or gate the machine-readable performance benchmarks "
             "(the BENCH_*.json trajectory records)",
    )
    bench_kind = bench.add_subparsers(dest="kind", required=True)
    bench_run = bench_kind.add_parser(
        "run",
        help="evaluate a workbench tier cold + resumed and write the "
             "BENCH_workbench.json record",
    )
    bench_run.add_argument("--tier", default="small", choices=tier_names(),
                           help="workbench tier to benchmark (default: small)")
    bench_run.add_argument("--configs", nargs="+", metavar="CFG",
                           default=["S64", "4C16S16"],
                           help="configurations to evaluate "
                                "(default: S64 4C16S16)")
    bench_run.add_argument("--loops", type=int, default=None, metavar="N",
                           help="benchmark only the tier's first N loops")
    bench_run.add_argument("--seed", type=int, default=None)
    bench_run.add_argument("--jobs", type=_nonnegative_int, default=1,
                           metavar="N",
                           help="worker processes (0 = one per CPU)")
    bench_run.add_argument("--shard-size", type=_positive_int,
                           default=DEFAULT_SHARD_SIZE, metavar="N")
    bench_run.add_argument("--checkpoint", default=None, metavar="DIR",
                           help="persist the benchmark's shard stores in DIR "
                                "(a rerun then resumes; default: temporary)")
    bench_run.add_argument("--out", default="BENCH_workbench.json",
                           metavar="FILE",
                           help="record path (default: BENCH_workbench.json)")
    bench_compare = bench_kind.add_parser(
        "compare",
        help="gate a fresh BENCH_*.json record against a committed baseline",
    )
    bench_compare.add_argument("baseline", help="committed baseline record")
    bench_compare.add_argument("fresh", help="freshly generated record")
    bench_compare.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRAC",
        help="allowed wall-clock regression as a fraction (default: 0.25); "
             "counter checks (full sweeps, failures, digests, resume "
             "identity) are always exact",
    )

    return parser


def _duration(text: str) -> float:
    """argparse type for durations: seconds, accepting 60, 60s, 5m, 1h."""
    raw = text.strip().lower()
    scale = 1.0
    if raw.endswith(("s", "m", "h")):
        scale = {"s": 1.0, "m": 60.0, "h": 3600.0}[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid duration {text!r} (expected e.g. 60, 60s or 5m)"
        )
    if value <= 0:
        raise argparse.ArgumentTypeError(f"duration must be positive, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for --jobs: a non-negative worker count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one worker per CPU), got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type for strictly positive counts (e.g. --shard-size)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cache_from_args(args: argparse.Namespace) -> Optional[EvalCache]:
    """Build the on-disk result cache requested by ``--cache DIR`` (if any)."""
    if not args.cache:
        return None
    try:
        return EvalCache(args.cache)
    except OSError as exc:
        raise SystemExit(f"error: --cache {args.cache}: {exc}")


def _store_from_args(args: argparse.Namespace) -> Optional[ResultStore]:
    """The shard checkpoint store requested by ``--checkpoint DIR`` (if any).

    ``--resume`` additionally requires the store to already hold at least
    one shard envelope: resuming into an empty (freshly created, or
    mistyped) directory is almost certainly not what the caller meant,
    and silently starting cold would discard hours of prior work.
    """
    checkpoint = getattr(args, "checkpoint", None)
    if not checkpoint:
        if getattr(args, "resume", False):
            raise SystemExit("error: --resume requires --checkpoint DIR")
        return None
    # Probed before ResultStore() so a mistyped path is rejected without
    # being mkdir'd into existence (an empty directory left behind would
    # make the typo look like a valid cold checkpoint on the next run).
    if getattr(args, "resume", False) and not ResultStore.has_shards(checkpoint):
        raise SystemExit(
            f"error: --resume: no completed shards found under "
            f"{checkpoint!r} (drop --resume for a cold checkpointed run)"
        )
    try:
        return ResultStore(checkpoint)
    except OSError as exc:
        raise SystemExit(f"error: --checkpoint {checkpoint}: {exc}")


def _session_from_args(
    args: argparse.Namespace, *, budget_ratio: Optional[float] = None
) -> Session:
    """The session one CLI invocation runs on (flags become defaults)."""
    return Session(
        policy=getattr(args, "policy", "mirs_hc"),
        budget_ratio=6.0 if budget_ratio is None else budget_ratio,
        jobs=args.jobs,
        cache=_cache_from_args(args),
        checkpoint=_store_from_args(args),
        shard_size=getattr(args, "shard_size", DEFAULT_SHARD_SIZE),
    )


def _cmd_schedule(args: argparse.Namespace) -> int:
    with _session_from_args(args, budget_ratio=args.budget_ratio) as session:
        result = session.schedule_kernel(
            args.kernel, args.config,
            # Forward an explicit parallelism request so the session can
            # warn that it is a no-op for a single loop.
            jobs=args.jobs if args.jobs != 1 else None,
        )
    if args.json:
        from repro import serialize

        print(serialize.dumps(result))
        return 0 if result.success else 1
    print(result.summary())
    print(result.kernel_table())
    if not result.success:
        return 1
    rf = config_by_name(args.config)
    machine, _ = scaled_machine(baseline_machine(), rf)
    if args.registers or args.code:
        allocation = allocate_registers(result, machine, rf)
        if args.registers:
            print()
            print(allocation.describe())
        if args.code:
            print()
            print(generate_code(result, allocation=allocation).render())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.workloads.suite import workbench_tier

    # Naming a tier is asking for that workbench: '--tier full' without
    # --loops means all 1258 loops, not a silent 32-loop subset.  Without
    # an explicit tier the historical 32-loop default applies, validated
    # against the standard tier.
    tier = args.tier or "standard"
    n_loops = args.loops
    if n_loops is None:
        n_loops = workbench_tier(tier).n_loops if args.tier else 32
    with _session_from_args(args) as session:
        try:
            comparison = session.compare_configurations(
                args.configs, n_loops=n_loops, seed=args.seed,
                tier=tier, reference=args.reference,
            )
        except WorkbenchSizeError as exc:
            # --loops beyond the tier must be reported with the sizes
            # that are available, never silently truncated.
            raise SystemExit(f"error: --loops {args.loops}: {exc}")
    print(comparison["table"].render())
    print()
    print("ranking (fastest first):", ", ".join(comparison["ranking"]))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    targets = sorted(EXPERIMENT_DRIVERS) if args.target == "all" else [args.target]
    # One session for the whole invocation: with ``reproduce all`` the
    # tables share many (loop, configuration) pairs, so later drivers
    # start warm even without --cache DIR.
    cache = _cache_from_args(args)
    if cache is None:
        cache = EvalCache()
    with Session(
        jobs=args.jobs, cache=cache,
        checkpoint=_store_from_args(args), shard_size=args.shard_size,
    ) as session:
        for target in targets:
            driver = EXPERIMENT_DRIVERS[target]
            result = driver(n_loops=args.loops, seed=args.seed, session=session)
            print()
            print(result.render())
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import DEFAULT_FUZZ_CONFIGS, replay_case

    if args.replay:
        from repro.verify.corpus import load_case

        case = load_case(args.replay)
        outcome = replay_case(
            case,
            reproducer=f"python -m repro.cli fuzz --replay {args.replay}",
        )
        print(f"{args.replay}: {outcome.status} (expected {case.expect})")
        if outcome.message:
            print(outcome.message)
        return 0 if outcome.status == case.expect else 1

    policies = args.policies
    if policies and "all" in policies:
        policies = bundle_names()
    session = Session(budget_ratio=args.budget_ratio)
    report = session.fuzz_schedules(
        args.seeds,
        base_seed=args.base_seed,
        configs=args.configs or DEFAULT_FUZZ_CONFIGS,
        profiles=args.profiles,
        policies=policies,
        sample_configs=args.sample_configs,
        budget_ratio=args.budget_ratio,
        time_budget_s=args.budget,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        n_iterations=args.iterations,
        progress=print,
    )
    print(report.render())
    if report.failures:
        print()
        for failure in report.failures:
            print(f"--- {failure.status}: seed {failure.seed} "
                  f"({failure.profile} on {failure.config_name})")
            print(failure.message)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import BatchScheduler, ShardCoordinator, make_server

    session = _session_from_args(args)
    db = None
    if args.db:
        from repro.store import RunDatabase

        db = RunDatabase(args.db)
    coordinator = None
    if args.coordinator:
        # The coordinator persists completed shard envelopes through the
        # same ResultStore the local execution path checkpoints into, so
        # distributed runs resume (and digest-match) like local ones.
        # Without --checkpoint the store is a throwaway directory: the
        # fleet still works, it just starts cold on every restart.
        store = session.checkpoint
        if store is None:
            import tempfile

            store = ResultStore(tempfile.mkdtemp(prefix="repro-fleet-"))
        coordinator = ShardCoordinator(
            store, lease_timeout_s=args.lease_timeout, db=db,
        )
    scheduler = BatchScheduler(
        session, coordinator=coordinator, db=db,
        max_queued_per_client=args.quota,
    )
    server = make_server(scheduler, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[:2]
    mode = "fleet coordinator" if coordinator is not None else "local"
    print(f"repro service listening on http://{host}:{port} "
          f"(mode={mode}, jobs={args.jobs}, "
          f"cache={args.cache or 'memory-only'}, "
          f"checkpoint={args.checkpoint or 'off'}, "
          f"db={args.db or 'off'}, "
          f"policy={args.policy})", flush=True)
    if scheduler.n_recovered:
        print(f"  recovered {scheduler.n_recovered} unfinished job(s) "
              f"from {args.db}", flush=True)
    if coordinator is not None:
        print(f"  workers connect with: repro worker --url http://{host}:{port}",
              flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.shutdown()
        scheduler.shutdown()
        session.close()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from urllib.error import URLError

    from repro.service import run_worker

    cache = _cache_from_args(args)
    print(f"repro worker polling {args.url} "
          f"(jobs={args.jobs}, cache={args.cache or 'memory-only'})",
          file=sys.stderr, flush=True)
    try:
        stats = run_worker(
            args.url,
            name=args.name,
            jobs=args.jobs,
            cache=cache,
            poll_interval=args.poll,
            max_leases=args.max_leases,
            idle_exit_s=args.idle_exit,
            progress=lambda line: print(f"  {line}", file=sys.stderr, flush=True),
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("worker interrupted", file=sys.stderr, flush=True)
        return 0
    except URLError as exc:
        raise SystemExit(f"error: cannot reach coordinator at {args.url}: {exc}")
    print(f"worker {stats.worker_id} exiting: {stats.n_completed} shard(s) "
          f"completed ({stats.n_loops} loops), {stats.n_lost} lease(s) lost, "
          f"{stats.n_errors} error(s)", file=sys.stderr, flush=True)
    return 0 if not stats.n_errors else 1


def _build_submit_request(args: argparse.Namespace) -> Dict[str, object]:
    if args.kind == "schedule":
        kernel_params: Dict[str, object] = {}
        for item in args.param:
            key, sep, raw = item.partition("=")
            if not sep or not key:
                raise SystemExit(f"error: --param expects KEY=VALUE, got {item!r}")
            try:
                value: object = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            kernel_params[key] = value
        params: Dict[str, object] = {"kernel": args.kernel, "config": args.config}
        if args.policy:
            params["policy"] = args.policy
        if kernel_params:
            params["kernel_params"] = kernel_params
        request: Dict[str, object] = {"kind": "schedule", "params": params}
        if args.client:
            request["client"] = args.client
        return request
    params: Dict[str, object] = {"config": args.config, "seed": args.seed}
    if args.loops is not None:
        params["n_loops"] = args.loops
    if args.tier:
        params["tier"] = args.tier
    if args.policy:
        params["policy"] = args.policy
    request = {"kind": "evaluate", "params": params}
    if args.client:
        request["client"] = args.client
    return request


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro import serialize
    from repro.service import fetch_json, poll_job, submit_job

    request = _build_submit_request(args)
    job_id = submit_job(args.url, request)
    print(f"submitted {request['kind']} job {job_id} to {args.url}",
          file=sys.stderr, flush=True)

    def progress(status: Dict) -> None:
        bar = status.get("progress") or {}
        print(f"  {status['state']}: {bar.get('n_done', 0)}/"
              f"{bar.get('n_total', 0)}", file=sys.stderr, flush=True)

    try:
        status = poll_job(
            args.url, job_id,
            poll_interval=args.poll, timeout=args.timeout, progress=progress,
        )
    except TimeoutError as exc:
        raise SystemExit(f"error: {exc}")
    if status["state"] != "done":
        raise SystemExit(
            f"error: job {job_id} ended {status['state']}"
            + (f": {status['error']}" if status.get("error") else "")
        )
    envelope = status["result"]
    if args.validate:
        serialize.validate(envelope)
        remote = fetch_json(f"{args.url.rstrip('/')}/v2/schema")
        remote_type = remote.get("types", {}).get(envelope["type"])
        if remote_type is None:
            raise SystemExit(
                f"error: the service's schema does not describe "
                f"{envelope['type']!r} (version skew between client and "
                f"server?)"
            )
        required = remote_type["required"]
        lacking = [key for key in required if key not in envelope["data"]]
        if lacking:
            raise SystemExit(
                f"error: result is missing schema-required keys: {lacking}"
            )
        print(f"result validates against schema v{remote['schema']} "
              f"({envelope['type']})", file=sys.stderr, flush=True)
    print(json.dumps(envelope, indent=2, sort_keys=True))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from repro.report import ReportQuery, build_report, render_csv, render_html
    from repro.store import RunDatabase

    if not os.path.exists(args.db):
        raise SystemExit(f"error: no run database at {args.db} "
                         f"(start one with 'repro serve --db {args.db}')")
    query = ReportQuery(
        configs=tuple(args.config),
        policies=tuple(args.policy),
        tiers=tuple(args.tier),
        loop=args.loop,
        since=args.since,
        until=args.until,
        limit=args.limit,
    )
    with RunDatabase(args.db) as db:
        data = build_report(db, query)
    if not data.rows:
        print(f"no runs in {args.db} match the query", file=sys.stderr)
        return 1
    print(f"{data.n_runs} run(s), {data.n_failed} failed "
          f"({len(data.aggregates)} configuration/policy group(s))")
    header = f"{'config':<14} {'policy':<12} {'runs':>5} {'fail':>5} " \
             f"{'sum II':>8} {'sum MII':>8} {'II/MII':>7} {'spills':>7}"
    print(header)
    print("-" * len(header))
    for agg in data.aggregates:
        print(f"{agg.config_name:<14} {agg.policy:<12} {agg.n_runs:>5} "
              f"{agg.n_failed:>5} {agg.sum_ii:>8} {agg.sum_mii:>8} "
              f"{agg.ii_over_mii:>7.3f} {agg.spills:>7}")
    if args.html:
        from pathlib import Path

        path = Path(args.html)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_html(data))
        print(f"wrote HTML report to {path}")
    if args.csv:
        from pathlib import Path

        path = Path(args.csv)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_csv(data.rows))
        print(f"wrote run-table CSV to {path}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.eval.reporting import Table
    from repro.explore import ExploreSpec, Explorer
    from repro.workloads.suite import workbench_tier

    try:
        workbench_tier(args.tier).check_size(args.loops)
        spec = ExploreSpec(
            algo=args.algo,
            budget=args.budget,
            seed=args.seed,
            tier=args.tier,
            n_loops=args.loops,
            probe_tier=args.probe_tier,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    db = None
    if args.db:
        from repro.store.db import RunDatabase

        db = RunDatabase(args.db)
    if args.resume:
        if db is None:
            raise SystemExit("error: --resume requires --db PATH")
        if not db.probes():
            raise SystemExit(
                f"error: --resume: {args.db} holds no completed probes "
                f"(run once with --db {args.db} first)"
            )

    def on_event(update) -> None:
        verb = "restored" if update.restored else "probed"
        marker = " +frontier" if update.accepted else ""
        print(
            f"explore [{update.n_done}/{update.n_total}] {verb} "
            f"{update.point.config_name} ({update.stage}){marker}",
            file=sys.stderr,
        )

    # 'explore --resume' resumes from the probe store (--db), not from a
    # shard checkpoint; strip the flag so the shared session builder does
    # not mistake it for a '--checkpoint DIR' resume.
    session_args = argparse.Namespace(**{**vars(args), "resume": False})
    try:
        with _session_from_args(session_args) as session:
            explorer = Explorer(
                session=session, spec=spec, db=db, on_event=on_event
            )
            report = explorer.run()
    finally:
        if db is not None:
            db.close()

    if args.json:
        from repro import serialize

        print(serialize.dumps(report))
        return 0
    print(
        f"explored {report.n_probes} design point(s) with --algo {spec.algo} "
        f"on tier '{spec.tier}': {report.n_evaluated} evaluated, "
        f"{report.n_restored} restored from the probe store"
    )
    table = Table(
        ("config", "kind", "area (Ml^2)", "time (ns)", "sum II"),
        title=f"Pareto frontier ({len(report.points)} point(s))",
    )
    for point in report.points:
        table.add_row(
            point.config_name,
            point.kind,
            point.area_mlambda2,
            point.time_ns,
            point.sum_ii,
        )
    print(table.render())
    print(f"frontier digest: {report.digest}")
    return 0


def _cmd_schema(args: argparse.Namespace) -> int:
    from repro import serialize

    text = json.dumps(serialize.schema(), indent=2, sort_keys=True)
    if args.out:
        from pathlib import Path

        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"wrote serialization schema to {path}")
    else:
        print(text)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.eval import bench as bench_mod

    if args.kind == "run":
        try:
            record = bench_mod.run_workbench_bench(
                tier=args.tier,
                configs=args.configs,
                n_loops=args.loops,
                seed=args.seed,
                jobs=args.jobs,
                shard_size=args.shard_size,
                checkpoint_dir=args.checkpoint,
            )
        except WorkbenchSizeError as exc:
            raise SystemExit(f"error: --loops {args.loops}: {exc}")
        from pathlib import Path

        path = Path(args.out)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        totals = record["totals"]
        print(f"wrote {path} (tier={record['tier']}, "
              f"loops={record['n_loops']}, wall={totals['wall_s']:.2f}s, "
              f"resume_identical={totals['resume_identical']})")
        return 0 if totals["resume_identical"] else 1

    assert args.kind == "compare"
    baseline = bench_mod.load_record(args.baseline)
    fresh = bench_mod.load_record(args.fresh)
    problems, notes = bench_mod.compare_bench(
        baseline, fresh, tolerance=args.tolerance
    )
    for note in notes:
        print(f"note: {note}")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        print(f"{len(problems)} benchmark regression(s) vs {args.baseline}")
        return 1
    print(f"{args.fresh} is within tolerance of {args.baseline} "
          f"(tolerance {args.tolerance:.0%})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "schedule": _cmd_schedule,
        "evaluate": _cmd_evaluate,
        "reproduce": _cmd_reproduce,
        "fuzz": _cmd_fuzz,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "submit": _cmd_submit,
        "report": _cmd_report,
        "explore": _cmd_explore,
        "schema": _cmd_schema,
        "bench": _cmd_bench,
    }
    handler = handlers.get(args.command)
    if handler is None:  # pragma: no cover - argparse guards this
        raise AssertionError(f"unhandled command {args.command}")
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
