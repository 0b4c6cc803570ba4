"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload clustered_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced in a child process first, then
traced in this process, prints the per-layer metrics and writes the
spans as a Chrome trace to ``.perfbench_out/``.  The last line of
standard output is always the result object; the lines before it give
the sample counts and each batch's ``runs_digest``.  The exit code is 0
only when every output passed its correctness check.

Every run is one fresh process (module state such as the shared
analysis cache must not carry over between workloads).  ``repro`` is
imported only after the set-up clock starts.  Internal flags
(``--setup-only``, ``--populate``, ``--state``, ``--setup-samples``,
``--report``) are how a run drives its own child processes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (both modules import only the standard library)
from workloads import WORKLOADS  # noqa: E402

#: Set-up is measured this many times per run (the run's own set-up plus
#: fresh child processes doing only set-up); ``setup_s`` is the median.
SETUP_SAMPLES = 3
STATE_DIR = ROOT / ".perfbench_state"
TRACE_DIR = ROOT / ".perfbench_out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--populate", help=argparse.SUPPRESS)
    parser.add_argument("--state", help=argparse.SUPPRESS)
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--report", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args, *extra: str) -> str:
    """Run this script in a fresh process; returns its last stdout line."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170, check=True)
    return done.stdout.strip().splitlines()[-1]


def _set_up(workload, tracer=None):
    """Import ``repro`` and run the workload's set-up; returns (seconds, missing layers)."""
    started = time.perf_counter()
    with workload.span("setup.import"):
        for module in workload.imports:
            importlib.import_module(module)
    missing = tracing.install(tracer) if tracer is not None else []
    workload.setup()
    return time.perf_counter() - started, missing


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    own_state = args.state is None
    state = Path(args.state) if args.state else STATE_DIR / f"{args.workload}-{os.getpid()}"
    state.mkdir(parents=True, exist_ok=True)
    try:
        return _dispatch(args, state)
    finally:
        if own_state:
            shutil.rmtree(state, ignore_errors=True)
            try:
                STATE_DIR.rmdir()
            except OSError:
                pass


def _dispatch(args, state: Path) -> int:
    cls = WORKLOADS[args.workload]
    if args.populate:
        cls(args.seed, args.seconds, state).populate(args.populate)
        return 0
    if args.setup_only:
        workload = cls(args.seed, args.seconds, state)
        try:
            setup_s, _ = _set_up(workload)
        finally:
            workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        return _traced(args, cls, state)
    return _untraced(args, cls, state)


def _populate(args, cls, state: Path) -> None:
    """Fill the stores of ``resume_warm``, one child process per configuration."""
    children = [
        subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--state", str(state),
                          "--populate", config], cwd=ROOT, stdout=subprocess.DEVNULL)
        for config in cls.configs
    ]
    try:
        codes = [child.wait(timeout=170) for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    if any(codes):
        raise RuntimeError(f"populating {args.workload} failed (exit codes {codes})")


def _run(args, cls, state: Path, tracer=None):
    """Set up, measure and check one workload in this process."""
    if hasattr(cls, "populate"):
        _populate(args, cls, state)
    workload = cls(args.seed, args.seconds, state, tracer)
    try:
        setup_s, missing = _set_up(workload, tracer)
        workload.plan()
        workload.measure()
        checked = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        attempted, failed = workload.check()
        workload.check_s += time.perf_counter() - checked
    finally:
        workload.close()
    return workload, setup_s, sum(workload.pass_s), attempted, failed, missing


def _untraced(args, cls, state: Path) -> int:
    setups = [json.loads(_child(args, "--setup-only", "--state", str(state / f"setup-{k}")))
              ["setup_s"] for k in range(args.setup_samples - 1)]
    workload, setup_s, timed_s, attempted, failed, _ = _run(args, cls, state)
    setups.append(setup_s)
    latency_ms = [seconds * 1e3 for seconds in workload.pass_s]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "loops_per_s": (workload.n_loops / timed_s, "1/s"),
        "jobs_per_s": (workload.n_jobs / timed_s, "1/s"),
        "latency_p50_ms": (tracing.percentile(latency_ms, 50), "ms"),
        "latency_p99_ms": (tracing.percentile(latency_ms, 99), "ms"),
        "sum_ii": (workload.sum_ii, "cycles"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    print(f"perfbench: workload={args.workload} seed={args.seed} timed_s={timed_s:.4f} "
          f"loops={workload.n_loops} jobs={workload.n_jobs} ii_attempts={workload.ii_attempts} "
          f"latency_samples={len(latency_ms)} setup_samples={len(setups)}")
    if len(latency_ms) <= 8:
        print("perfbench: pass_ms " + " ".join(f"{ms:.1f}" for ms in latency_ms))
    for label, digest in workload.digests.items():
        print(f"perfbench: runs_digest {label} {digest}")
    _report_failures(workload, attempted, failed)
    if args.report:
        Path(args.report).write_text(json.dumps({"timed_s": timed_s, "jobs": workload.n_jobs}))
    return _emit(attempted, failed, metrics)


def _traced(args, cls, state: Path) -> int:
    report = state / "untraced.json"
    _child(args, "--trace", "0", "--setup-samples", "1", "--report", str(report),
           "--state", str(state / "untraced"))
    untraced = json.loads(report.read_text())
    tracer = tracing.Tracer()
    workload, _, timed_s, attempted, failed, missing = _run(args, cls, state, tracer)
    extra = workload.layer_values()
    extra.update({
        "setup.import_s": _span_total(tracer, "setup.import"),
        "session.open_s": _span_total(tracer, "session.open"),
        "verify.check_s": workload.check_s,
        # Per job, because the service runs as many jobs as fit in the time.
        "trace.overhead_share": (timed_s / workload.n_jobs)
        / (untraced["timed_s"] / untraced["jobs"]) - 1.0,
    })
    layer, absent = tracing.layer_metrics(tracer.spans, missing, extra)
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    tracer.write_chrome_trace(path, {"workload": args.workload, "seed": args.seed,
                                     "timed_s": timed_s, "missing_layers": missing})
    print(f"perfbench: workload={args.workload} seed={args.seed} traced_timed_s={timed_s:.4f} "
          f"untraced_timed_s={untraced['timed_s']:.4f} spans={len(tracer.spans)} trace={path}")
    for name in absent:
        print(f"perfbench: layer metric {name} is missing (its wrap target is gone); reads 0")
    _report_failures(workload, attempted, failed)
    return _emit(attempted, failed,
                 {name: (entry["value"], entry["unit"]) for name, entry in layer.items()})


def _span_total(tracer, name: str) -> float:
    return sum(span.end - span.start for span in tracer.spans if span.name == name)


def _report_failures(workload, attempted: int, failed: int) -> None:
    for line in workload.failures[:20]:
        print(f"perfbench: FAILED {line}")
    print(f"perfbench: failed_share={failed / max(1, attempted):.6f} "
          f"({failed} of {attempted})")


def _emit(attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
