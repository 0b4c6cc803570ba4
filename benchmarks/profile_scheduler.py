"""cProfile the scheduler microbench workbench and dump the hot spots.

Runs the exact pressure workbench of
``benchmarks/test_scheduler_microbench.py`` (the run the
``BENCH_scheduler.json`` gate tracks) under cProfile
and writes the top-30 cumulative-time entries to
``benchmarks/output/profile.txt``.  The perf-gate CI job uploads the
file as an artifact, so the next performance round starts from data
instead of re-profiling by hand.

Usage::

    PYTHONPATH=src python benchmarks/profile_scheduler.py [output_path]
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_scheduler_microbench import _pressure_workbench, _run_workbench  # noqa: E402

TOP_N = 30


def profile_workbench(output_path: Path) -> str:
    cases = _pressure_workbench()
    # Warm-up pass: one-time costs (imports, preset construction, analysis
    # cache fills) would otherwise dominate the profile of what is, in the
    # suite drivers, steady-state work.
    _run_workbench(cases)

    profiler = cProfile.Profile()
    profiler.enable()
    stats = _run_workbench(cases)
    profiler.disable()

    buffer = io.StringIO()
    ps = pstats.Stats(profiler, stream=buffer)
    ps.strip_dirs().sort_stats("cumulative").print_stats(TOP_N)
    report = (
        f"scheduler workbench profile ({len(cases)} cases)\n"
        f"wall_s={stats['wall_s']:.4f} pressure_checks={stats['pressure_checks']}\n"
        f"top {TOP_N} by cumulative time\n\n" + buffer.getvalue()
    )
    output_path.parent.mkdir(parents=True, exist_ok=True)
    output_path.write_text(report)
    return report


def main() -> None:
    default = Path(__file__).resolve().parent / "output" / "profile.txt"
    output_path = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    report = profile_workbench(output_path)
    print(report)
    print(f"written to {output_path}")


if __name__ == "__main__":
    main()
