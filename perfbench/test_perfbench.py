"""Tests of the benchmark itself: ``python -m pytest perfbench -q`` from the root.

Every workload runs at a tiny size (``--seconds 1``) in a fresh process,
exactly as the benchmark command is run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str, prelude: str = ""):
    """Run the benchmark command; returns (exit code, stdout lines, result object)."""
    if prelude:
        command = [sys.executable, "-c",
                   f"import sys; sys.path[:0] = ['src', 'perfbench']\n{prelude}\n"
                   f"import run\nsys.exit(run.main({list(args)!r}))"]
    else:
        command = [sys.executable, "perfbench/run.py", *args]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1]) if lines else None


_TINY = {}


def _tiny(workload: str, seed: int = 1):
    """One tiny untraced run per (workload, seed), shared between tests."""
    if (workload, seed) not in _TINY:
        _TINY[workload, seed] = _run("--workload", workload, "--seed", str(seed),
                                     "--seconds", "1", "--trace", "0",
                                     "--setup-samples", "1")
    return _TINY[workload, seed]


def test_benchmark_json_names_what_the_code_measures():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert PER_LAYER == {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    assert END_TO_END["setup_s"] == "s"
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric_and_passes_its_checks(workload):
    code, lines, result = _tiny(workload)
    assert code == 0, "\n".join(lines)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("perfbench: runs_digest ") for line in lines)


def test_another_seed_changes_the_digest_but_not_the_metric_names():
    _, lines_1, result_1 = _tiny("clustered_cold", 1)
    _, lines_2, result_2 = _tiny("clustered_cold", 2)
    digests_1 = [line for line in lines_1 if "runs_digest" in line]
    digests_2 = [line for line in lines_2 if "runs_digest" in line]
    assert digests_1 and digests_1 != digests_2
    assert list(result_1["metrics"]) == list(result_2["metrics"])


def test_a_corrupted_schedule_is_counted_and_fails_the_command():
    prelude = """
from repro.core.engine import SchedulerEngine
original = SchedulerEngine.schedule_loop
def corrupt(self, loop):
    result = original(self, loop)
    if result.success and loop.name == 'vadd':
        result.assignments.pop(next(iter(result.assignments)))
    return result
SchedulerEngine.schedule_loop = corrupt
"""
    code, lines, result = _run("--workload", "monolithic_full", "--seed", "1",
                               "--seconds", "0.2", "--setup-samples", "1", prelude=prelude)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 2  # vadd on S128 and S64
    assert any("FAILED" in line and "vadd" in line for line in lines)
    assert "perfbench: failed_share=" in "\n".join(lines)


def test_trace_is_chrome_json_and_self_times_fit_in_the_wall_time():
    code, lines, result = _run("--workload", "service_mixed", "--seed", "3",
                               "--seconds", "0.5", "--trace", "1")
    assert code == 0, "\n".join(lines)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == PER_LAYER
    path = Path(re.search(r"trace=(\S+)", "\n".join(lines)).group(1))
    try:
        trace = json.loads(path.read_text())
    finally:
        path.unlink()
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert events and all({"name", "ts", "dur", "pid", "tid", "args"} <= set(e) for e in events)
    assert all({"id", "parent", "request"} <= set(e["args"]) for e in events)
    wall = max(e["ts"] + e["dur"] for e in events) - min(e["ts"] for e in events)
    spans = {e["args"]["id"]: e for e in events}
    for tid in {e["tid"] for e in events}:
        own = [e for e in events if e["tid"] == tid]
        child_time = {}
        for e in own:
            if e["args"]["parent"] in spans:
                child_time[e["args"]["parent"]] = child_time.get(e["args"]["parent"], 0) + e["dur"]
        self_total = sum(e["dur"] - child_time.get(e["args"]["id"], 0) for e in own)
        assert 0 <= self_total <= wall * 1.001


def test_a_missing_wrap_target_is_a_missing_layer_not_a_crash():
    tracer = tracing.Tracer()
    missing = tracing.install(tracer, targets=(
        ("core", "core.schedule_loop", "repro.core.engine:SchedulerEngine.no_such_method"),
        ("serialize", "serialize.load", "repro.no_such_module:load"),
    ))
    assert missing == ["core.schedule_loop", "serialize.load"]
    metrics, absent = tracing.layer_metrics([], missing, {"verify.check_s": 0.5})
    assert "core.attempts" in absent and "serialize.decode_s" in absent
    assert "store.writes" not in absent
    assert metrics["core.attempts"]["value"] == 0.0
    assert metrics["verify.check_s"]["value"] == 0.5


def test_self_time_subtracts_child_spans():
    parent = tracing.Span(1, "eval.schedule_suite", 0.0, None, "S64", 1)
    parent.end = 10.0
    first = tracing.Span(2, "core.schedule_loop", 1.0, 1, "S64:0", 1)
    first.end = 4.0
    second = tracing.Span(3, "core.schedule_loop", 5.0, 1, "S64:1", 1)
    second.end = 6.0
    assert tracing.self_times([parent, first, second]) == {1: 6.0, 2: 3.0, 3: 1.0}


def test_command_without_the_program_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "clustered_cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
