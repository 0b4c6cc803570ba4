"""The restore contract: a restored run is the run that was scheduled.

Each case schedules the tiny tier cold into a shard checkpoint and a
disk :class:`~repro.eval.cache.EvalCache` at once, then restores it
through a fresh :class:`~repro.session.Session` holding only the
checkpoint and through a fresh one holding only the cache.  Every
restore must reproduce the cold run's ``runs_digest`` and its run
payloads (wall-clock zeroed), and every restored schedule must pass the
validator and the differential VLIW executor.

The prefetch case schedules transformed copies of its loops (binding
prefetch rewrites load latencies), so its restores must carry those
transformed loops, not the caller's.
"""

from __future__ import annotations

import pytest

from repro.core.validate import validate_schedule
from repro.eval.cache import EvalCache
from repro.eval.experiments import schedule_suite
from repro.eval.shards import ResultStore, canonical_run_payload, runs_digest
from repro.hwmodel import scaled_machine
from repro.machine import baseline_machine, config_by_name
from repro.machine.presets import figure6_configs
from repro.session import Session
from repro.simulator.prefetch import PrefetchPolicy
from repro.verify.differential import differential_check
from repro.workloads import build_workbench

PREFETCH_CONFIG = "S64"
assert PREFETCH_CONFIG in {rf.name for rf in figure6_configs()}

CASES = {
    "S64": ("S64", None),
    "4C16S16": ("4C16S16", None),
    "S64-prefetch": (PREFETCH_CONFIG, PrefetchPolicy()),
}


@pytest.fixture(scope="module")
def tiny_tier():
    return build_workbench("tiny")


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, tiny_tier, tmp_path_factory):
    """One case scheduled cold into a checkpoint and a disk cache."""
    config, prefetch = CASES[request.param]
    directory = tmp_path_factory.mktemp(request.param)
    cold = schedule_suite(
        tiny_tier,
        config,
        prefetch=prefetch,
        cache=EvalCache(directory / "cache"),
        store=ResultStore(directory / "checkpoint"),
    )
    if prefetch is not None:
        # The case is only meaningful if the transform bound some load.
        assert any(
            op.latency_override is not None
            for run in cold
            for op in run.loop.graph.nodes()
        )
    return {
        "config": config,
        "prefetch": prefetch,
        "directory": directory,
        "cold": cold,
        "digest": runs_digest(cold),
    }


def _restore(case, loops, source):
    if source == "checkpoint":
        session = Session(checkpoint=case["directory"] / "checkpoint")
    else:
        session = Session(cache=EvalCache(case["directory"] / "cache"))
    with session:
        runs = schedule_suite(
            loops,
            case["config"],
            machine=session.machine,
            prefetch=case["prefetch"],
            cache=session.cache,
            store=session.checkpoint,
        )
    # A restore schedules nothing: every lookup hit.
    tier = session.checkpoint if source == "checkpoint" else session.cache
    assert tier.misses == 0 and tier.hits > 0
    return runs


@pytest.mark.parametrize("source", ["checkpoint", "cache"])
def test_restore_reproduces_the_cold_run(case, tiny_tier, source):
    restored = _restore(case, tiny_tier, source)
    assert runs_digest(restored) == case["digest"]
    assert [canonical_run_payload(run) for run in restored] == [
        canonical_run_payload(run) for run in case["cold"]
    ]
    rf = config_by_name(case["config"])
    machine, _spec = scaled_machine(baseline_machine(), rf)
    for run in restored:
        validate_schedule(run.result, machine, rf)
        report = differential_check(run.loop, run.result, machine, rf)
        assert report.ok, report.describe_failure()
